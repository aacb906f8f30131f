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
// a one-line criterion it is a classic (emulate.go), the single-curve
// baseline (singlestage.go) or an extended one (sched.NewBUCKETSeek). It
// satisfies the scheduler contract used by the simulator: values are
// computed at enqueue time (including the SFC3 head-relative seek
// dimension, as in the paper).
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

	vbuf []uint64 // reusable AddBatch value buffer

	m *Metrics // never nil; shared with disp
}

// NewScheduler builds the full scheduler. If dcfg.Window is zero and
// windowFrac is positive, the blocking window is set to windowFrac of the
// encapsulator's value space — the unit the paper's experiments use.
func NewScheduler(name string, ecfg EncapsulatorConfig, dcfg DispatcherConfig, windowFrac float64) (*Scheduler, error) {
	enc, err := NewEncapsulator(ecfg)
	if err != nil {
		return nil, err
	}
	if windowFrac < 0 || windowFrac > 1 {
		return nil, fmt.Errorf("core: window fraction %v outside [0,1]", windowFrac)
	}
	if dcfg.Window == 0 && windowFrac > 0 {
		dcfg.Window = uint64(windowFrac * float64(enc.MaxValue()))
	}
	if name == "" {
		name = "cascaded-sfc"
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
	return &Scheduler{v: v, disp: disp, name: name, cylinders: cylinders, m: disp.Metrics()}, nil
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

// SetMetrics redirects the scheduler's (and its dispatcher's) observability
// counters to m instead of the process-wide DefaultMetrics. Must be called
// before the first Add; m must not be nil.
func (s *Scheduler) SetMetrics(m *Metrics) {
	s.m = m
	s.disp.SetMetrics(m)
}

// observeHead advances the sweep timeline to the given head position.
// Any movement counts as forward cyclic progress, which is exact while the
// scheduler itself drives the head in sweep order.
func (s *Scheduler) observeHead(head int) {
	c := s.cylinders
	if c <= 0 {
		return
	}
	head = min(max(head, 0), c-1)
	s.progress += uint64((head - s.lastHead + c) % c)
	s.lastHead = head
	s.m.SweepProgress.Set(int64(s.progress))
}

// Add enqueues r, computing its characterization value at time now with
// the disk head at cylinder head.
func (s *Scheduler) Add(r *Request, now int64, head int) {
	s.observeHead(head)
	s.disp.Add(r, s.v.ValueAt(r, now, head, s.progress))
}

// AddBatch enqueues every request of rs at time now with the disk head at
// cylinder head. Values are computed once into a reused buffer and handed
// to the dispatcher's bulk insert, which heapifies an empty queue in one
// O(n) pass instead of n sift-ups.
func (s *Scheduler) AddBatch(rs []*Request, now int64, head int) {
	if len(rs) == 0 {
		return
	}
	s.observeHead(head)
	if cap(s.vbuf) < len(rs) {
		s.vbuf = make([]uint64, len(rs))
	}
	vs := s.vbuf[:len(rs)]
	for i, r := range rs {
		vs[i] = s.v.ValueAt(r, now, head, s.progress)
	}
	s.disp.AddBatch(rs, vs)
}

// Next dispatches the next request, or nil when idle.
func (s *Scheduler) Next(now int64, head int) *Request {
	s.observeHead(head)
	r := s.disp.Next()
	if r != nil {
		s.m.noteDispatch(r, now)
	}
	return r
}

// RequestValue returns the characterization value the valuer would
// assign r at time now with the head at cylinder head, on the current
// sweep timeline. Read-only: neither the queues nor the sweep progress
// change. It is not the value r was queued at (see EachValue); nothing
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

// EachValue visits all queued requests with the values they were enqueued
// at (Dispatcher.EachValue), so observers read v_c without recomputing it.
func (s *Scheduler) EachValue(visit func(*Request, uint64)) { s.disp.EachValue(visit) }
