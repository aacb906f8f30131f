package core

import (
	"fmt"
)

// PreemptMode selects the dispatcher's queue discipline (paper §3).
type PreemptMode int

const (
	// NonPreemptive serves the current batch to completion: arrivals wait
	// in q' and the queues swap when q drains. Starvation-free, but higher
	// priority arrivals wait behind the whole batch.
	NonPreemptive PreemptMode = iota
	// FullyPreemptive keeps a single queue ordered by v_c. Maximally
	// responsive, but a stream of high-priority arrivals starves the rest.
	FullyPreemptive
	// ConditionallyPreemptive lets an arrival jump into the serving queue
	// only when its value beats the current request by more than the
	// blocking window w.
	ConditionallyPreemptive
)

// String implements fmt.Stringer.
func (m PreemptMode) String() string {
	switch m {
	case NonPreemptive:
		return "non-preemptive"
	case FullyPreemptive:
		return "fully-preemptive"
	case ConditionallyPreemptive:
		return "conditionally-preemptive"
	default:
		return fmt.Sprintf("PreemptMode(%d)", int(m))
	}
}

// DispatcherConfig configures the dispatcher ("Part 2" of Fig. 2).
type DispatcherConfig struct {
	Mode PreemptMode
	// Window is the blocking window w: an arrival preempts only if its
	// value is below the current request's value minus Window. 0 behaves
	// fully preemptively; a huge value behaves non-preemptively. Only
	// meaningful in ConditionallyPreemptive mode.
	Window uint64
	// SP enables the Serve-and-Promote policy (§3.2): before each
	// dispatch, waiting requests that now clear the window against the
	// next request are promoted into the serving queue.
	SP bool
	// ER enables the Expand-and-Reset starvation guard (§3.3): every
	// preemption multiplies the window by Expansion; dispatching a
	// non-preempting request resets it to Window.
	ER bool
	// Expansion is the ER growth factor e (> 1). Defaults to 2 when ER is
	// set and Expansion is zero.
	Expansion float64
}

// queued is the payload of one queued request. Its value v_c is the heap
// Key and its arrival number the Seq, the FIFO tie-break. Entries are
// stored by value inside the queue heaps: enqueueing boxes nothing.
type queued struct {
	req *Request
	// preempter marks a request that entered q by preemption or
	// promotion. q and q' swap only when q is empty, so a mark never
	// outlives the batch it preempted into.
	preempter bool
}

// Dispatcher drains requests in characterization-value order under the
// configured preemption policy. It is not safe for concurrent use; put the
// Scheduler that owns it behind Lock for a concurrent front-end.
type Dispatcher struct {
	cfg    DispatcherConfig
	q      Heap4[queued] // serving queue
	qw     Heap4[queued] // waiting queue q'
	curV   uint64        // value of the in-service request
	hasCur bool
	w      uint64   // current window (ER may expand it)
	seq    uint64   // arrival counter: the heaps' tie-break
	m      *Metrics // nil: count nothing
}

// NewDispatcher returns a dispatcher for cfg.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	if cfg.Mode < NonPreemptive || cfg.Mode > ConditionallyPreemptive {
		return nil, fmt.Errorf("core: unknown preempt mode %d", cfg.Mode)
	}
	if cfg.ER {
		if cfg.Expansion == 0 {
			cfg.Expansion = 2
		}
		if !(1 < cfg.Expansion) {
			return nil, fmt.Errorf("core: ER expansion must be > 1, got %v", cfg.Expansion)
		}
	}
	return &Dispatcher{cfg: cfg, w: cfg.Window}, nil
}

// MustDispatcher is NewDispatcher for static configurations.
func MustDispatcher(cfg DispatcherConfig) *Dispatcher {
	d, err := NewDispatcher(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Window returns the current blocking window (ER may have expanded it).
func (d *Dispatcher) Window() uint64 { return d.w }

// SetMetrics installs m as the sink of the dispatcher's observability
// counters; nil (the default) counts nothing. Must be called before the
// first Add.
func (d *Dispatcher) SetMetrics(m *Metrics) { d.m = m }

// Metrics returns the sink the dispatcher reports into, or nil when none
// is installed.
func (d *Dispatcher) Metrics() *Metrics { return d.m }

// Len returns the number of queued (not yet dispatched) requests.
func (d *Dispatcher) Len() int { return d.q.Len() + d.qw.Len() }

// Add enqueues r with characterization value v.
func (d *Dispatcher) Add(r *Request, v uint64) {
	e := HeapItem[queued]{Key: v, Seq: d.seq, Val: queued{req: r}}
	d.seq++
	switch d.cfg.Mode {
	case FullyPreemptive:
		d.q.Push(e)
	case NonPreemptive:
		d.qw.Push(e)
	case ConditionallyPreemptive:
		if d.hasCur && d.clearsWindow(v, d.curV) {
			e.Val.preempter = true
			d.notePreemption()
			d.q.Push(e)
		} else {
			d.qw.Push(e)
		}
	}
	if m := d.m; m != nil {
		m.Adds.Inc()
		m.QueueDepthHiWater.Observe(int64(d.q.Len() + d.qw.Len()))
	}
}

// clearsWindow reports whether value v is significantly higher priority
// than reference ref, i.e. v < ref - w without underflow.
func (d *Dispatcher) clearsWindow(v, ref uint64) bool {
	return ref > d.w && v < ref-d.w
}

// notePreemption applies the ER expansion and counts the event.
func (d *Dispatcher) notePreemption() {
	if d.m != nil {
		d.m.Preemptions.Inc()
	}
	if d.cfg.ER {
		d.expandWindow()
	}
}

// expandWindow applies one ER growth step to the blocking window: multiply
// by the expansion factor, always advancing by at least one so w == 0 and
// float saturation still make progress. Preemptions and SP promotions share
// this single implementation so a growth-rule fix cannot land in only one
// of the two paths.
func (d *Dispatcher) expandWindow() {
	nw := uint64(float64(d.w) * d.cfg.Expansion)
	if nw <= d.w { // w == 0 or float saturation
		nw = d.w + 1
	}
	d.w = nw
	if d.m != nil {
		d.m.WindowExpansions.Inc()
	}
}

// Next dispatches the highest-priority request, or nil when empty. The
// returned request is considered in service until the following Next call.
func (d *Dispatcher) Next() *Request {
	if d.q.Len() == 0 {
		if d.qw.Len() == 0 {
			d.hasCur = false
			return nil
		}
		d.q.SwapWith(&d.qw)
		if d.m != nil {
			d.m.Swaps.Inc()
		}
	}
	if d.cfg.Mode == ConditionallyPreemptive && d.cfg.SP && d.qw.Len() > 0 {
		d.promote()
	}
	e := d.q.Pop()
	if d.cfg.ER && !e.Val.preempter {
		if d.w != d.cfg.Window && d.m != nil {
			d.m.WindowResets.Inc()
		}
		d.w = d.cfg.Window
	}
	d.curV = e.Key
	d.hasCur = true
	return e.Val.req
}

// promote implements SP: any waiting request that clears the window
// against the next serving-queue request joins the serving queue.
func (d *Dispatcher) promote() {
	next := d.q.Peek().Key
	for d.qw.Len() > 0 && d.clearsWindow(d.qw.Peek().Key, next) {
		e := d.qw.Pop()
		e.Val.preempter = true
		if d.m != nil {
			d.m.Promotions.Inc()
		}
		if d.cfg.ER {
			// A promotion expands the window like a preemption but is not
			// double counted as an arrival preemption.
			d.expandWindow()
		}
		d.q.Push(e)
		next = d.q.Peek().Key
	}
}

// Each visits every queued request (serving and waiting queues, not the
// in-service one). Metrics use it to sample priority inversions.
func (d *Dispatcher) Each(visit func(*Request)) {
	for _, e := range d.q.Slice() {
		visit(e.Val.req)
	}
	for _, e := range d.qw.Slice() {
		visit(e.Val.req)
	}
}
