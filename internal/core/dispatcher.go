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

// entry is one queued request with its characterization value. Entries are
// stored by value inside the queue heaps: enqueueing boxes nothing.
type entry struct {
	v   uint64
	seq uint64 // FIFO tie-break
	req *Request
	// gen stamps preempters with the serving-queue epoch they preempted
	// into; a batch swap bumps the epoch, which retires every outstanding
	// preempter mark in O(1) instead of clearing flags across the queue.
	gen       uint32
	preempter bool // entered q by preemption or promotion in epoch gen
}

// entryCmp orders entries by (v, seq). It is a zero-size Comparer so the
// heap's sift comparisons compile to direct, inlinable code.
type entryCmp struct{}

// Less implements Comparer.
func (entryCmp) Less(a, b *entry) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	return a.seq < b.seq
}

// Dispatcher drains requests in characterization-value order under the
// configured preemption policy. It is not safe for concurrent use; put the
// Scheduler that owns it behind Lock for a concurrent front-end.
type Dispatcher struct {
	cfg    DispatcherConfig
	q      Heap4[entry, entryCmp] // serving queue
	qw     Heap4[entry, entryCmp] // waiting queue q'
	curV   uint64                 // value of the in-service request
	hasCur bool
	w      uint64 // current window (ER may expand it)
	seq    uint64
	gen    uint32   // serving-queue epoch; see entry.gen
	m      *Metrics // never nil; DefaultMetrics unless overridden
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
		if cfg.Expansion <= 1 {
			return nil, fmt.Errorf("core: ER expansion must be > 1, got %v", cfg.Expansion)
		}
	}
	return &Dispatcher{cfg: cfg, w: cfg.Window, m: DefaultMetrics}, nil
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

// SetMetrics redirects the dispatcher's observability counters to m
// (per-instance instead of the process-wide DefaultMetrics). Must be called
// before the first Add; m must not be nil.
func (d *Dispatcher) SetMetrics(m *Metrics) { d.m = m }

// Metrics returns the metrics sink the dispatcher reports into.
func (d *Dispatcher) Metrics() *Metrics { return d.m }

// Len returns the number of queued (not yet dispatched) requests.
func (d *Dispatcher) Len() int { return d.q.Len() + d.qw.Len() }

// Add enqueues r with characterization value v.
func (d *Dispatcher) Add(r *Request, v uint64) {
	e := entry{v: v, seq: d.seq, req: r}
	d.seq++
	d.m.Adds.Inc()
	switch d.cfg.Mode {
	case FullyPreemptive:
		d.q.Push(e)
	case NonPreemptive:
		d.qw.Push(e)
	case ConditionallyPreemptive:
		if d.hasCur && d.clearsWindow(v, d.curV) {
			e.preempter = true
			e.gen = d.gen
			d.notePreemption()
			d.q.Push(e)
		} else {
			d.qw.Push(e)
		}
	}
	d.m.QueueDepthHiWater.Observe(int64(d.q.Len() + d.qw.Len()))
}

// AddBatch enqueues rs[i] with value vs[i] for every i, preserving Add's
// per-arrival semantics. In the fully- and non-preemptive modes an empty
// target queue is bulk-loaded and heapified once (Floyd build) instead of
// sifting each arrival up individually; the conditionally-preemptive mode
// must evaluate the blocking window per arrival and degenerates to a loop.
func (d *Dispatcher) AddBatch(rs []*Request, vs []uint64) {
	if len(rs) != len(vs) {
		panic(fmt.Sprintf("core: AddBatch length mismatch: %d requests, %d values", len(rs), len(vs)))
	}
	var target *Heap4[entry, entryCmp]
	switch d.cfg.Mode {
	case FullyPreemptive:
		target = &d.q
	case NonPreemptive:
		target = &d.qw
	default:
		for i, r := range rs {
			d.Add(r, vs[i])
		}
		return
	}
	if target.Len() > 0 {
		for i, r := range rs {
			d.Add(r, vs[i])
		}
		return
	}
	for i, r := range rs {
		target.Append(entry{v: vs[i], seq: d.seq, req: r})
		d.seq++
	}
	target.Build()
	d.m.Adds.Add(uint64(len(rs)))
	d.m.QueueDepthHiWater.Observe(int64(d.q.Len() + d.qw.Len()))
}

// clearsWindow reports whether value v is significantly higher priority
// than reference ref, i.e. v < ref - w without underflow.
func (d *Dispatcher) clearsWindow(v, ref uint64) bool {
	return ref > d.w && v < ref-d.w
}

// notePreemption applies the ER expansion and counts the event.
func (d *Dispatcher) notePreemption() {
	d.m.Preemptions.Inc()
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
	d.m.WindowExpansions.Inc()
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
		d.m.Swaps.Inc()
		// A swapped-in batch is the new serving set; none of its members
		// preempted anything. Advancing the epoch retires any stale
		// preempter marks without touching the batch.
		d.gen++
	}
	if d.cfg.Mode == ConditionallyPreemptive && d.cfg.SP && d.qw.Len() > 0 {
		d.promote()
	}
	e := d.q.Pop()
	if d.cfg.ER && !(e.preempter && e.gen == d.gen) {
		if d.w != d.cfg.Window {
			d.m.WindowResets.Inc()
		}
		d.w = d.cfg.Window
	}
	d.curV = e.v
	d.hasCur = true
	return e.req
}

// promote implements SP: any waiting request that clears the window
// against the next serving-queue request joins the serving queue.
func (d *Dispatcher) promote() {
	next := d.q.Peek().v
	for d.qw.Len() > 0 && d.clearsWindow(d.qw.Peek().v, next) {
		e := d.qw.Pop()
		e.preempter = true
		e.gen = d.gen
		d.m.Promotions.Inc()
		if d.cfg.ER {
			// A promotion expands the window like a preemption but is not
			// double counted as an arrival preemption.
			d.expandWindow()
		}
		d.q.Push(e)
		next = d.q.Peek().v
	}
}

// Each visits every queued request (serving and waiting queues, not the
// in-service one). Metrics use it to sample priority inversions.
func (d *Dispatcher) Each(visit func(*Request)) {
	for _, e := range d.q.Slice() {
		visit(e.req)
	}
	for _, e := range d.qw.Slice() {
		visit(e.req)
	}
}

// EachValue is Each yielding every queued request with the value it was
// enqueued at: the value the dispatcher orders it by.
func (d *Dispatcher) EachValue(visit func(*Request, uint64)) {
	for _, e := range d.q.Slice() {
		visit(e.req, e.v)
	}
	for _, e := range d.qw.Slice() {
		visit(e.req, e.v)
	}
}
