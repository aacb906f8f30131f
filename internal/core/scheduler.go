package core

import "fmt"

// Valuer is an insertion criterion: it maps a request to the scalar the
// dispatcher orders by, lower first. progress is the owning Scheduler's
// sweep timeline (see observeHead), 0 when it was built without cylinders.
// ValueAt must be a function of its arguments alone, because
// Scheduler.RequestValue calls it on queued requests; it may reuse private
// scratch, since one scheduler owns one valuer and never calls it
// concurrently.
type Valuer interface {
	ValueAt(r *Request, now int64, head int, progress uint64) uint64
}

// Scheduler couples a Valuer with a Dispatcher: §4.2 in the type system.
// Over an Encapsulator it is the complete Cascaded-SFC disk scheduler; over
// a one-line criterion it is a classic (emulate.go) or the single-curve
// baseline (singlestage.go). It satisfies the scheduler contract used by
// the simulator: values are computed at enqueue time (including the SFC3
// head-relative seek dimension, as in the paper).
type Scheduler struct {
	v    Valuer
	disp *Dispatcher
	name string

	// Scan-timeline tracking for the seek dimension: cumulative cylinders
	// the head has swept (cyclically, modulo cylinders; 0 = no timeline)
	// and the last head position observed.
	cylinders int
	progress  uint64
	lastHead  int
}

// NewScheduler builds the full scheduler. If dcfg.Window is zero and
// windowFrac is positive, the blocking window is set to windowFrac of the
// encapsulator's value space — the unit the paper's experiments use.
func NewScheduler(name string, ecfg EncapsulatorConfig, dcfg DispatcherConfig, windowFrac float64) (*Scheduler, error) {
	enc, err := NewEncapsulator(ecfg)
	if err != nil {
		return nil, err
	}
	if !(0 <= windowFrac && windowFrac <= 1) {
		return nil, fmt.Errorf("core: window fraction %v outside [0,1]", windowFrac)
	}
	if dcfg.Window == 0 && windowFrac > 0 {
		// float64(…): see expandWindow.
		dcfg.Window = uint64(float64(windowFrac * float64(enc.MaxValue())))
	}
	return NewValueScheduler(name, enc, enc.cfg.Cylinders, dcfg)
}

// NewValueScheduler builds a scheduler that inserts by v's criterion.
// cylinders is the modulus of the sweep timeline handed to v as progress;
// 0 keeps none, for criteria that ignore the head.
func NewValueScheduler(name string, v Valuer, cylinders int, dcfg DispatcherConfig) (*Scheduler, error) {
	if f, isFunc := v.(ValueFunc); v == nil || isFunc && f == nil {
		return nil, fmt.Errorf("core: NewValueScheduler needs a valuer")
	}
	disp, err := NewDispatcher(dcfg)
	if err != nil {
		return nil, err
	}
	return &Scheduler{v: v, disp: disp, name: name, cylinders: cylinders}, nil
}

// MustScheduler is NewScheduler for static configurations.
func MustScheduler(name string, ecfg EncapsulatorConfig, dcfg DispatcherConfig, windowFrac float64) *Scheduler {
	s, err := NewScheduler(name, ecfg, dcfg, windowFrac)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the scheduler's display name.
func (s *Scheduler) Name() string { return s.name }

// SetMetrics installs m as the sink of the scheduler's (and its
// dispatcher's) observability counters; nil (the default) counts nothing.
// Must be called before the first Add.
func (s *Scheduler) SetMetrics(m *Metrics) { s.disp.SetMetrics(m) }

// observeHead advances the sweep timeline to the given head position.
// Any movement counts as forward cyclic progress, which is exact while the
// scheduler itself drives the head in sweep order. A head that has not
// moved changes nothing, so it costs no gauge store.
func (s *Scheduler) observeHead(head int) {
	c := s.cylinders
	if c <= 0 {
		return
	}
	head = min(max(head, 0), c-1)
	if head == s.lastHead {
		return
	}
	s.progress += uint64(cylsAhead(head, s.lastHead, c))
	s.lastHead = head
	if m := s.disp.Metrics(); m != nil {
		m.SweepProgress.Set(int64(s.progress))
	}
}

// Add enqueues r, computing its characterization value at time now with
// the disk head at cylinder head.
func (s *Scheduler) Add(r *Request, now int64, head int) { s.AddValue(r, now, head) }

// AddValue is Add returning the value r was queued at: the one the
// dispatcher orders it by. The simulator's observers keep it from here,
// so v_c is computed once per request, at insertion, as §3 has it.
func (s *Scheduler) AddValue(r *Request, now int64, head int) uint64 {
	s.observeHead(head)
	v := s.v.ValueAt(r, now, head, s.progress)
	s.disp.Add(r, v)
	return v
}

// AddBatch enqueues every request of rs, in order, exactly as Add would.
// Nothing outside tests calls it but the benchmark's ledger
// (bench/layers.go), which stays frozen until the benchmark is next
// revised.
func (s *Scheduler) AddBatch(rs []*Request, now int64, head int) {
	for _, r := range rs {
		s.Add(r, now, head)
	}
}

// Next dispatches the next request, or nil when idle.
func (s *Scheduler) Next(now int64, head int) *Request {
	s.observeHead(head)
	r := s.disp.Next()
	if m := s.disp.Metrics(); r != nil && m != nil {
		m.noteDispatch(r, now)
	}
	return r
}

// RequestValue returns the characterization value the valuer would
// assign r at time now with the head at cylinder head, on the current
// sweep timeline. Read-only: neither the queues nor the sweep progress
// change. It is not the value r was queued at (see AddValue); nothing
// outside tests calls it but the benchmark's scheduler decorator
// (bench/decor.go), which stays frozen until the benchmark is next revised.
func (s *Scheduler) RequestValue(r *Request, now int64, head int) uint64 {
	return s.v.ValueAt(r, now, head, s.progress)
}

// Window returns the dispatcher's current blocking window (ER may have
// expanded it beyond the configured width).
func (s *Scheduler) Window() uint64 { return s.disp.Window() }

// Len returns the number of queued requests.
func (s *Scheduler) Len() int { return s.disp.Len() }

// Each visits all queued requests.
func (s *Scheduler) Each(visit func(*Request)) { s.disp.Each(visit) }
