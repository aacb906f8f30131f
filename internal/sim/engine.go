package sim

import (
	"fmt"
	"math"
	"slices"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
)

// This file is the unified event-driven engine behind every topology: Run
// drives a one-station Engine, RunArray an N-station Engine with the
// RAID-5 logical/physical mapping layered on top through the Engine hooks,
// cluster.Run one station per member disk behind a router. All three
// assemble their run in Engine.Setup, and there is exactly one
// dispatch/drop/service/metrics code path — the Station methods below — so
// every topology observes identical semantics and emits the same
// TraceEvent stream and metrics.

// Station is one service point of the engine: a disk model (or a fixed
// service time) plus the queue discipline feeding it. Service is
// non-interruptible — a dispatched request occupies the station until its
// completion event fires.
//
// Every station decides through Pick, as serve.Dispatcher does, and has
// its head model: the head moves to the target the moment a service
// starts, so requests added during the service window see the position
// the head is en route to. An idle station asks Pick at every event time,
// so a drained queue sees its empty point.
type Station struct {
	// ID is the station index, assigned by Engine.Setup; it doubles as
	// TraceEvent.DiskID and as the deterministic tie-break for same-time
	// completion events.
	ID int
	// Sched is the queue discipline under test. Required.
	Sched sched.Scheduler
	// Disk models seek/rotation/transfer times. Nil requires FixedService.
	Disk *disk.Model
	// Col accumulates this station's physical metrics (dispatch inversions,
	// served/dropped/late counts, seek and service time). Required.
	Col *metrics.Collector
	// FixedService, when positive, overrides the disk model with a
	// constant service time (pure queueing experiments).
	FixedService int64

	head       int
	headTravel int64
	inSvc      *core.Request
	svcStart   int64
	svcSeek    int64
	svcTime    int64
	shadows    []*Shadow
	// view is the sorted copy of the queue the observers read; nil when
	// the run has neither Decisions nor Telemetry.
	view *queueView
}

// Head returns the station's current head cylinder.
func (s *Station) Head() int { return s.head }

// HeadTravel returns the total cylinders traveled so far.
func (s *Station) HeadTravel() int64 { return s.headTravel }

// Busy reports whether a service is in flight.
func (s *Station) Busy() bool { return s.inSvc != nil }

// Enqueue hands r to the station's scheduler with the station's current
// head position. The head is always a valid (clamped) cylinder, so
// schedulers never observe a position outside the disk. Attached shadow
// schedulers receive the same request (with their own head positions), so
// counterfactual queues see every arrival and fault retry the primary
// queue sees. It is the queue view's one insert path.
func (s *Station) Enqueue(r *core.Request, now int64) {
	if s.view == nil {
		s.Sched.Add(r, now, s.head)
	} else {
		s.view.add(r, now, s.head)
	}
	for _, sh := range s.shadows {
		sh.add(r, now)
	}
}

// left takes r, which the scheduler has just handed out to be served,
// dropped or drained, out of the queue view: the view's one removal path.
func (s *Station) left(r *core.Request) {
	if s.view != nil {
		s.view.remove(r)
	}
}

// cylinders is the geometry Pick clamps onto, 0 without a disk model.
func (s *Station) cylinders() int { return disk.ServiceModel{Disk: s.Disk}.Cylinders() }

// serviceTimeAt returns (seekTime, totalServiceTime) for a service of
// size bytes at the (already clamped) cylinder cyl. The computation lives
// in disk.ServiceModel — the same code path the real-clock backends of
// internal/serve charge — so simulated and served requests can never
// disagree on what a service costs.
func (s *Station) serviceTimeAt(cyl int, size int64) (int64, int64) {
	return disk.ServiceModel{Disk: s.Disk, FixedService: s.FixedService}.Times(s.head, cyl, size, nil)
}

// timerSeqBase offsets timer-event sequence numbers above every station
// ID, so at equal times completion events always fire before timers.
const timerSeqBase = uint64(1) << 32

// event is one pending engine event: a service completion (station set)
// or a timer callback (fn set). The queue orders events by (time, seq),
// the time as its key (timeKey): seq is a deterministic tie-break —
// completion events use the station ID, timers a monotone counter above
// timerSeqBase — so identical configurations replay identically. The
// order is total, so the pop order does not depend on the heap's shape.
type event struct {
	station *Station
	fn      func(now int64)
}

// timeKey maps an event time onto the heap's unsigned key, preserving
// order: flipping the sign bit puts negative times below positive ones.
func timeKey(t int64) uint64 { return uint64(t) ^ 1<<63 }

// keyTime inverts timeKey.
func keyTime(k uint64) int64 { return int64(k ^ 1<<63) }

// Engine is the deterministic event-driven simulator core. Setup assembles
// a run from Options and the topology's stations; the topology then
// installs its hooks and calls Run with an arrival-sorted trace and a
// delivery callback that routes each arriving request onto a station.
type Engine struct {
	// Stations are the service points, indexed by Station.ID. At each
	// event time idle stations dispatch in index order, which makes runs
	// reproducible.
	Stations []*Station

	// OnServed fires when a station completes a service, late when that
	// service started past the request's deadline (possible only without
	// DropLate); OnDropped when a station drops an expired request.
	// Multi-stage topologies (RAID read-modify-write) layer their logical
	// bookkeeping here — the hooks run inline at the exact event time, so
	// follow-up work they enqueue participates in the same dispatch round.
	OnServed  func(st *Station, r *core.Request, now int64, late bool)
	OnDropped func(st *Station, r *core.Request, now int64)
	// onFaulted fires when a service attempt of r fails on an injected
	// fault and r stays in the run: Retry (it re-enters st's queue after
	// a backoff) or Lost (stranded on a failed disk). late says the failed
	// attempt started past r's deadline, so every started attempt reports
	// its lateness once, with its completion. A request lost while queued
	// or in a retry backoff started nothing new and reports late false.
	// Only arrays can lose a disk, and RunArray re-routes a lost request
	// through reconstruction.
	onFaulted func(st *Station, r *core.Request, now int64, v fault.Verdict, late bool)

	// opts is the run's configuration as Setup received it: the drop
	// policy and the observers (Trace, Decisions, Telemetry, Shadows) are
	// read from it directly.
	opts Options
	// faults is the injector built from opts.Fault; nil when the plan is
	// nil or zero. It draws from its own RNG stream, so a run without
	// one is byte-identical to a run with a zero plan.
	faults   *fault.Injector
	events   core.Heap4[event]
	now      int64
	timerSeq uint64
	// retries is the free list of fault retry timers.
	retries []*retryTimer
}

// Setup assembles a run on e — the one place sim.Run, sim.RunArray and
// cluster.Run wire their engine. Everything a previous run left behind
// (events, clock, hooks, injector) is discarded; only the event heap's
// capacity is kept, so a recycled engine (sim.Reuse) pushes into the
// memory earlier runs grew. Stations get their index as ID, and the one
// station of a single-station run gets the shadows. failable says whether
// the topology can lose a whole disk (Fault.FailAt): only arrays re-route.
//
// Setup validates what only the assembled topology can: shadows ride
// single-station runs only, and the disk a failure names must be one of
// stations. It binds the shadows only once the whole run is valid, so a
// rejected run leaves them unspent.
func (e *Engine) Setup(opts Options, stations []*Station, failable bool) error {
	events := e.events
	events.Reset()
	*e = Engine{Stations: stations, opts: opts, events: events}
	n := len(stations)
	for i, st := range stations {
		st.ID, st.shadows = i, nil
	}
	for i, sh := range opts.Shadows {
		if n != 1 {
			return fmt.Errorf("sim: shadow %q needs a single-station run, this one has %d", sh.name, n)
		}
		if sh.used || slices.Contains(opts.Shadows[:i], sh) {
			return fmt.Errorf("sim: shadow %q already rode a run; shadows are single-use", sh.name)
		}
	}
	if plan := opts.Fault; !plan.Zero() {
		if plan.FailAt > 0 && !failable {
			return fmt.Errorf("sim: whole-disk failure requires an array run")
		}
		if plan.FailAt > 0 && (plan.FailDisk < 0 || plan.FailDisk >= n) {
			return fmt.Errorf("sim: FailDisk %d outside array of %d disks", plan.FailDisk, n)
		}
		var err error
		if e.faults, err = fault.New(*plan, 0); err != nil {
			return err
		}
	}
	observed := opts.Decisions != nil || opts.Telemetry != nil
	for _, st := range stations {
		if !observed {
			st.view = nil
			continue
		}
		if n := st.Sched.Len(); n > 0 {
			return fmt.Errorf("sim: station %d's scheduler holds %d requests before the run; observers need an empty queue", st.ID, n)
		}
		if st.view == nil {
			st.view = new(queueView)
		}
		st.view.reset(st.Sched)
	}
	// Bind last: a run Setup rejects must not spend its shadows.
	for _, sh := range opts.Shadows {
		sh.bind(stations[0], opts.DropLate)
	}
	if len(opts.Shadows) > 0 {
		stations[0].shadows = opts.Shadows
	}
	return nil
}

// faultStats snapshots the injector's counters; nil when the run had no
// (or a zero) fault plan.
func (e *Engine) faultStats() *fault.Stats {
	if e.faults == nil {
		return nil
	}
	fs := e.faults.Stats()
	return &fs
}

// shadowReports returns one divergence report per attached shadow, in
// Options.Shadows order; nil when the run had none.
func (e *Engine) shadowReports() []ShadowReport {
	if len(e.opts.Shadows) == 0 {
		return nil
	}
	reports := make([]ShadowReport, len(e.opts.Shadows))
	for i, sh := range e.opts.Shadows {
		reports[i] = sh.Report()
	}
	return reports
}

// At schedules fn to run at time t (e.g. a planned disk failure or a
// retry re-enqueue). At equal times timers run after completions and
// before arrivals, in scheduling order.
func (e *Engine) At(t int64, fn func(now int64)) {
	e.timerSeq++
	e.events.Push(core.HeapItem[event]{Key: timeKey(t), Seq: timerSeqBase + e.timerSeq, Val: event{fn: fn}})
}

// Run drives the engine until every event has fired and the trace is
// exhausted, returning the completion time of the run (the makespan).
//
// The trace must be sorted by arrival time, as every workload generator
// and replay returns it. deliver is called once per request at its arrival
// time and must route it onto a station (Station.Enqueue) after any
// per-arrival accounting.
//
// Determinism rules: the clock advances to the earliest pending event
// time; at each time all completion events fire first in (time, seq)
// order, then timers in scheduling order, then arrivals in trace order,
// then idle stations dispatch in station-index order. Identical
// configurations therefore replay identically, including the fault
// injector's draw sequence.
func (e *Engine) Run(trace []*core.Request, deliver func(r *core.Request, now int64)) int64 {
	i := 0 // next arrival index
	for e.events.Len() > 0 || i < len(trace) {
		t := int64(math.MaxInt64)
		if e.events.Len() > 0 {
			t = keyTime(e.events.Peek().Key)
		}
		if i < len(trace) {
			t = min(t, trace[i].Arrival)
		}
		e.now = t
		// Completions first, so freed stations (and any follow-up work the
		// OnServed hook enqueues) can take this round's arrivals.
		for k := timeKey(t); e.events.Len() > 0 && e.events.Peek().Key == k; {
			ev := e.events.Pop().Val
			if ev.fn != nil {
				ev.fn(t)
				continue
			}
			e.complete(ev.station, t)
		}
		for i < len(trace) && trace[i].Arrival <= t {
			deliver(trace[i], t)
			i++
		}
		for _, st := range e.Stations {
			e.dispatch(st, t)
		}
		if tel := e.opts.Telemetry; tel != nil {
			tel.sample(e, t)
		}
	}
	if tel := e.opts.Telemetry; tel != nil {
		tel.closeRun(e, e.now)
	}
	return e.now
}

// Pick makes one dispatch decision, the step of §3 that every station,
// every shadow and the live dispatcher share: it pops s's next request at
// time now with the head at head, hands each one whose deadline has passed
// to drop when dropLate is set, and returns the first it may serve with
// the cylinder the head seeks to and the cylinders it travels. Only a
// geometry (cylinders > 0) clamps the target and counts travel; without
// one the head moves to the raw cylinder for free. A nil return is the
// final Next through which a stateful scheduler sees its queue empty: the
// Cascaded-SFC dispatcher clears its current-serving value and
// sweep-tracking stages see the resting head.
func Pick(s sched.Scheduler, now int64, head, cylinders int, dropLate bool, drop func(*core.Request)) (r *core.Request, target int, travel int64) {
	for r = s.Next(now, head); r != nil && dropLate && r.Deadline > 0 && now > r.Deadline; r = s.Next(now, head) {
		drop(r)
	}
	if r == nil {
		return nil, head, 0
	}
	target = r.Cylinder
	if cylinders > 0 {
		target = min(max(target, 0), cylinders-1)
		travel = int64(max(target-head, head-target))
	}
	return r, target, travel
}

// dispatch starts service on st if it is idle, dropping expired requests
// first under DropLate. An idle station with nothing to serve still asks
// Pick, whose last Next shows the scheduler its empty queue. With complete
// it is the single drop/late/service-time/metrics code path of the package.
func (e *Engine) dispatch(st *Station, now int64) {
	if st.inSvc != nil || e.faults != nil && e.faults.Down(st.ID) {
		// A failed disk serves nothing; the array layer drains and
		// re-routes its queue at failure time.
		return
	}
	r, target, travel := Pick(st.Sched, now, st.head, st.cylinders(), e.opts.DropLate,
		func(r *core.Request) { e.drop(st, r, now) })
	if r == nil {
		return
	}
	st.Col.OnDispatch(r, st.Sched.Each)
	seek, svc := st.serviceTimeAt(target, r.Size)
	st.headTravel += travel
	if e.opts.Trace != nil {
		e.opts.Trace(TraceEvent{Now: now, DiskID: st.ID, Request: r, Head: st.head, Seek: seek, Service: svc, QueueLen: st.Sched.Len()})
	}
	if e.opts.Decisions != nil {
		e.opts.Decisions.commit(st, r, now, false)
	}
	st.left(r)
	for _, sh := range st.shadows {
		sh.observe(r, now)
	}
	// The head is en route to (then at) the clamped target, so
	// arrivals during the service window observe a valid cylinder.
	st.inSvc, st.head = r, target
	st.svcStart, st.svcSeek, st.svcTime = now, seek, svc
	e.events.Push(core.HeapItem[event]{Key: timeKey(now + svc), Seq: uint64(st.ID), Val: event{station: st}})
}

// drop discards r, expired at dispatch time under DropLate. Dropped
// requests never occupy the station, so serving others "ahead" of them
// costs nothing: they must not contribute to the §5.1 inversion counts,
// and OnDispatch runs only for the request Pick returns.
func (e *Engine) drop(st *Station, r *core.Request, now int64) {
	st.Col.OnDropped(r)
	if e.faults != nil && e.faults.Attempted(r) {
		// The deadline expired while the request sat out a retry
		// backoff: a drop attributable to faults, not load.
		st.Col.OnFaultDropped()
		e.faults.Forget(r)
	}
	if e.opts.Trace != nil {
		e.opts.Trace(TraceEvent{Now: now, DiskID: st.ID, Request: r, Dropped: true, QueueLen: st.Sched.Len()})
	}
	if e.opts.Decisions != nil {
		e.opts.Decisions.commit(st, r, now, true)
	}
	// Out of the view before OnDropped, which may recycle r.
	st.left(r)
	if e.OnDropped != nil {
		e.OnDropped(st, r, now)
	}
}

// complete fires the completion of st's in-flight service. With a fault
// injector installed the completion is ruled on first: a faulted attempt
// still consumed the station (its seek and busy time are charged), but
// the request is re-enqueued after a backoff (Retry), abandoned
// (Exhausted) or re-routed (Lost) instead of completing.
func (e *Engine) complete(st *Station, now int64) {
	r := st.inSvc
	st.inSvc = nil
	// A deadline is met when service starts in time (the convention of
	// SCAN-EDF and §6's "serviced prior to the deadline"). Without
	// DropLate, expired requests are still serviced but counted late,
	// once per attempt, as the attempt completes.
	late := r.Deadline > 0 && st.svcStart > r.Deadline
	if late {
		st.Col.OnLate(r)
	}
	if e.faults != nil {
		verdict, delay := e.faults.Outcome(st.ID, st.head, r, now)
		if verdict != fault.OK {
			e.faulted(st, r, verdict, delay, now, late)
			return
		}
	}
	st.Col.OnServed(r, st.svcSeek, st.svcTime, st.svcStart)
	if e.OnServed != nil {
		e.OnServed(st, r, now, late)
	}
}

// faulted handles a non-OK verdict on the completed service of r; late
// says the attempt started past r's deadline.
func (e *Engine) faulted(st *Station, r *core.Request, verdict fault.Verdict, delay, now int64, late bool) {
	st.Col.OnFaultAttempt(st.svcSeek, st.svcTime)
	if e.opts.Trace != nil {
		e.opts.Trace(TraceEvent{Now: now, DiskID: st.ID, Request: r, Head: st.head,
			Faulted: true, Dropped: verdict == fault.Exhausted, QueueLen: st.Sched.Len()})
	}
	if verdict == fault.Exhausted {
		st.Col.OnDropped(r)
		st.Col.OnFaultDropped()
		if e.OnDropped != nil {
			e.OnDropped(st, r, now)
		}
		return
	}
	if e.onFaulted != nil {
		e.onFaulted(st, r, now, verdict, late)
	}
	if verdict == fault.Retry {
		e.retryAt(now+delay, st, r)
	}
}

// retryTimer is a fault retry sitting out its backoff. Its fire method
// value is bound once, when the timer is first made, so a timer taken
// from the engine's free list re-arms without allocating.
type retryTimer struct {
	e    *Engine
	st   *Station
	r    *core.Request
	fire func(now int64)
}

// retryAt re-enqueues r on st at time t.
func (e *Engine) retryAt(t int64, st *Station, r *core.Request) {
	rt := popFree(&e.retries)
	if rt.fire == nil {
		rt.e, rt.fire = e, rt.run
	}
	rt.st, rt.r = st, r
	e.At(t, rt.fire)
}

// run fires the retry and returns its timer to the free list.
func (rt *retryTimer) run(now int64) {
	e, st, r := rt.e, rt.st, rt.r
	rt.st, rt.r = nil, nil
	e.retries = append(e.retries, rt)
	if e.faults.Down(st.ID) {
		// The disk died during the backoff; the retry has nowhere to land.
		e.lose(st, r, now)
		return
	}
	st.Enqueue(r, now)
}

// popFree takes a recycled value off free, or allocates one when the list
// is empty. The value keeps its old contents; the caller overwrites what
// it needs.
func popFree[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	v := (*free)[n-1]
	*free = (*free)[:n-1]
	return v
}

// lose hands a request stranded on a failed disk while queued or in a
// retry backoff to onFaulted, which re-routes it through reconstruction.
func (e *Engine) lose(st *Station, r *core.Request, now int64) {
	e.faults.Forget(r)
	e.onFaulted(st, r, now, fault.Lost, false)
}
