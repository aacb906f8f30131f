package sim

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
	"sfcsched/internal/stats"
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
// Every station is a disk with one head model, the one serve.Dispatcher
// also uses. The head moves to the (clamped, possibly remapped) target the
// moment a service starts, so requests added during the service window see
// the position the head is en route to. A station that drains to idle with
// an empty queue probes its scheduler once more (a Next that returns nil),
// so stateful schedulers observe the empty point: the Cascaded-SFC
// dispatcher clears its current-serving value and sweep-tracking stages
// see the resting head.
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
	// TransferOnly charges only media transfer time (the §5.1-5.2
	// assumption that "the transfer time dominates the seek time").
	TransferOnly bool
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
// queue sees.
func (s *Station) Enqueue(r *core.Request, now int64) {
	s.Sched.Add(r, now, s.head)
	for _, sh := range s.shadows {
		sh.add(r, now)
	}
}

// serviceTimeAt returns (seekTime, totalServiceTime) for a service of
// size bytes at the (already clamped, possibly remapped) cylinder cyl,
// drawing the rotational latency from rng when sampleRotation is set.
// The computation lives in disk.ServiceModel — the same code path the
// real-clock backends of internal/serve charge — so simulated and served
// requests can never disagree on what a service costs. Exactly one RNG
// draw happens per sampled-rotation service, in dispatch order, which
// keeps runs reproducible.
func (s *Station) serviceTimeAt(cyl int, size int64, sampleRotation bool, rng *stats.RNG) (int64, int64) {
	m := disk.ServiceModel{
		Disk:           s.Disk,
		TransferOnly:   s.TransferOnly,
		FixedService:   s.FixedService,
		SampleRotation: sampleRotation,
	}
	return m.Times(s.head, cyl, size, rng)
}

// timerSeqBase offsets timer-event sequence numbers above every station
// ID, so at equal times completion events always fire before timers.
const timerSeqBase = uint64(1) << 32

// event is one pending engine event: a service completion (station set)
// or a timer callback (fn set). The queue orders events by (time, seq):
// seq is a deterministic tie-break — completion events use the station
// ID, timers a monotone counter above timerSeqBase — so identical
// configurations replay identically. The order is total, so the pop order
// does not depend on the heap's shape.
type event struct {
	time    int64
	seq     uint64
	station *Station
	fn      func(now int64)
}

type eventCmp struct{}

func (eventCmp) Less(a, b *event) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// Engine is the deterministic event-driven simulator core. Setup assembles
// a run from Options and the topology's stations; the topology then
// installs its hooks and calls Run with an arrival-sorted trace and a
// delivery callback that routes each arriving request onto a station.
type Engine struct {
	// Stations are the service points, indexed by Station.ID. At each
	// event time idle stations dispatch in index order, which fixes the
	// RNG draw order and makes runs reproducible.
	Stations []*Station
	// DropLate drops requests whose deadline has passed at dispatch time
	// (the §6 semantics). When false, expired requests are still serviced
	// and counted late.
	DropLate bool
	// RNG is the single rotational-latency stream shared by all stations.
	RNG *stats.RNG
	// Trace, when non-nil, receives one TraceEvent per dispatch decision
	// (served or dropped) on any station, with DiskID set to the station
	// ID. The hook runs inline; a slow sink slows the run, not the clock.
	Trace func(TraceEvent)
	// Faults, when non-nil, injects the deterministic fault plan: every
	// service completion is ruled on (OK/Retry/Exhausted/Lost), retried
	// requests re-enter their scheduler after a backoff timer, and
	// dispatches follow sector remaps. The injector draws from its own
	// RNG stream, so a nil (or zero-plan) injector leaves runs
	// byte-identical.
	Faults *fault.Injector
	// Decisions, when non-nil, captures a DecisionRecord per dispatch
	// decision: the candidate set is snapshotted (read-only) just before
	// the scheduler's Next and committed with the choice. Nil costs
	// nothing on the dispatch path.
	Decisions *DecisionTrace
	// Telemetry, when non-nil, samples per-station queue/utilization
	// state at fixed sim-time intervals. Sampling happens inside the run
	// loop at event times — it schedules no events of its own, so it can
	// never perturb the simulation.
	Telemetry *Telemetry

	// OnServed fires when a station completes a service; OnDropped when a
	// station drops an expired request; OnLateStart when a service starts
	// past its deadline without DropLate. Multi-stage topologies (RAID
	// read-modify-write) layer their logical bookkeeping here — the hooks
	// run inline at the exact event time, so follow-up work they enqueue
	// participates in the same dispatch round.
	OnServed    func(st *Station, r *core.Request, now int64)
	OnDropped   func(st *Station, r *core.Request, now int64)
	OnLateStart func(st *Station, r *core.Request, now int64)
	// OnFaulted fires when a request is lost to a failed disk (in flight
	// at failure time, or its retry timer landed on the dead station).
	// Array runs re-route it through reconstruction; without a handler
	// the request is dropped and attributed to faults.
	OnFaulted func(st *Station, r *core.Request, now int64)

	events   core.Heap4[event, eventCmp]
	now      int64
	timerSeq uint64
	rng      stats.RNG
	shadows  []*Shadow
	// sampleRotation draws each service's rotational latency from RNG
	// instead of charging the deterministic average (Options).
	sampleRotation bool
}

// Setup assembles a run on e — the one place sim.Run, sim.RunArray and
// cluster.Run wire their engine. Everything a previous run left behind
// (events, clock, hooks, injector) is discarded; only the event heap's
// capacity is kept, so a recycled engine (sim.Reuse) pushes into the
// memory earlier runs grew. Stations get their index as ID and the shadows
// that target them; the RNG is reseeded to the exact
// stats.NewRNG(opts.Seed) stream. failable says whether the topology can
// lose a whole disk (Fault.FailAt): only arrays re-route.
//
// Setup validates what only the assembled topology can: every shadow and
// every disk the fault plan names must be one of stations.
func (e *Engine) Setup(opts Options, stations []*Station, failable bool) error {
	events := e.events
	events.Reset()
	*e = Engine{
		Stations:       stations,
		DropLate:       opts.DropLate,
		Trace:          opts.Trace,
		Decisions:      opts.Decisions,
		Telemetry:      opts.Telemetry,
		events:         events,
		shadows:        opts.Shadows,
		sampleRotation: opts.SampleRotation,
	}
	e.rng.Seed(opts.Seed)
	e.RNG = &e.rng
	n := len(stations)
	for i, st := range stations {
		st.ID, st.shadows = i, nil
	}
	for _, sh := range opts.Shadows {
		if sh.Station < 0 || sh.Station >= n {
			return fmt.Errorf("sim: shadow %q targets station %d, outside the run's %d", sh.name, sh.Station, n)
		}
		if sh.used {
			return fmt.Errorf("sim: shadow %q already rode a run; shadows are single-use", sh.name)
		}
		st := stations[sh.Station]
		sh.bind(st, opts.DropLate)
		st.shadows = append(st.shadows, sh)
	}
	plan := opts.Fault
	if plan.Zero() {
		return nil
	}
	if plan.FailAt > 0 && !failable {
		return fmt.Errorf("sim: whole-disk failure requires an array run")
	}
	if plan.FailAt > 0 && (plan.FailDisk < 0 || plan.FailDisk >= n) {
		return fmt.Errorf("sim: FailDisk %d outside array of %d disks", plan.FailDisk, n)
	}
	// An index past the last station never matches a completion: the plan
	// would pass by injecting nothing. (Negative disks fail plan.Validate.)
	for i, ev := range plan.Scripted {
		if ev.Disk >= n {
			return fmt.Errorf("sim: fault plan Scripted[%d] names disk %d, outside the run's %d", i, ev.Disk, n)
		}
	}
	for i, b := range plan.Bad {
		if b.Disk >= n {
			return fmt.Errorf("sim: fault plan Bad[%d] names disk %d, outside the run's %d", i, b.Disk, n)
		}
	}
	cyls := 0
	if n > 0 && stations[0].Disk != nil {
		cyls = stations[0].Disk.Cylinders
	}
	var err error
	e.Faults, err = fault.New(*plan, cyls)
	return err
}

// faultStats snapshots the injector's counters; nil when the run had no
// (or a zero) fault plan.
func (e *Engine) faultStats() *fault.Stats {
	if e.Faults == nil {
		return nil
	}
	fs := e.Faults.Stats()
	return &fs
}

// shadowReports returns one divergence report per attached shadow, in
// Options.Shadows order; nil when the run had none.
func (e *Engine) shadowReports() []ShadowReport {
	if len(e.shadows) == 0 {
		return nil
	}
	reports := make([]ShadowReport, len(e.shadows))
	for i, sh := range e.shadows {
		reports[i] = sh.Report()
	}
	return reports
}

// At schedules fn to run at time t (e.g. a planned disk failure or a
// retry re-enqueue). At equal times timers run after completions and
// before arrivals, in scheduling order.
func (e *Engine) At(t int64, fn func(now int64)) {
	e.timerSeq++
	e.events.Push(event{time: t, seq: timerSeqBase + e.timerSeq, fn: fn})
}

// Run drives the engine until every event has fired and the trace is
// exhausted, returning the completion time of the run (the makespan).
//
// The trace must be sorted by arrival time (see SortByArrival). deliver is
// called once per request at its arrival time and must route it onto a
// station (Station.Enqueue) after any per-arrival accounting.
//
// Determinism rules: the clock advances to the earliest pending event
// time; at each time all completion events fire first in (time, seq)
// order, then timers in scheduling order, then arrivals in trace order,
// then idle stations dispatch in station-index order. Identical
// configurations therefore replay identically, including the RNG draw
// sequence.
func (e *Engine) Run(trace []*core.Request, deliver func(r *core.Request, now int64)) int64 {
	i := 0 // next arrival index
	for {
		t := int64(-1)
		if e.events.Len() > 0 {
			t = e.events.Peek().time
		}
		if i < len(trace) && (t < 0 || trace[i].Arrival < t) {
			t = trace[i].Arrival
		}
		if t < 0 {
			break // no pending events, no arrivals left
		}
		e.now = t
		// Completions first, so freed stations (and any follow-up work the
		// OnServed hook enqueues) can take this round's arrivals.
		for e.events.Len() > 0 && e.events.Peek().time == t {
			ev := e.events.Pop()
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
		if e.Telemetry != nil {
			e.Telemetry.sample(e, t)
		}
	}
	if e.Telemetry != nil {
		e.Telemetry.closeRun(e, e.now)
	}
	return e.now
}

// dispatch starts service on st if it is idle and has pending work,
// dropping expired requests first under DropLate. This is the single
// drop/late/service-time/metrics code path of the package.
func (e *Engine) dispatch(st *Station, now int64) {
	if e.Faults != nil && e.Faults.Down(st.ID) {
		// A failed disk serves nothing; the array layer drains and
		// re-routes its queue at failure time.
		return
	}
	for st.inSvc == nil && st.Sched.Len() > 0 {
		if e.Decisions != nil {
			// Snapshot the candidate set before the scheduler decides; the
			// walk is read-only, so the decision itself is unperturbed.
			e.Decisions.snapshot(st, now)
		}
		r := st.Sched.Next(now, st.head)
		if r == nil {
			return
		}
		if e.DropLate && r.Deadline > 0 && now > r.Deadline {
			// Dropped requests never occupy the station, so serving others
			// "ahead" of them costs nothing: they must not contribute to
			// the §5.1 inversion counts. OnDispatch therefore runs only
			// after the expiry check.
			st.Col.OnDropped(r)
			if e.Faults != nil && e.Faults.Attempted(r) {
				// The deadline expired while the request sat out a retry
				// backoff: a drop attributable to faults, not load.
				st.Col.OnFaultDropped()
				e.Faults.Forget(r)
			}
			if e.Trace != nil {
				e.Trace(TraceEvent{Now: now, DiskID: st.ID, Request: r, Dropped: true, QueueLen: st.Sched.Len()})
			}
			if e.Decisions != nil {
				e.Decisions.commit(st, r, now, true)
			}
			if e.OnDropped != nil {
				e.OnDropped(st, r, now)
			}
			continue
		}
		st.Col.OnDispatch(r, st.Sched.Each)
		target := r.Cylinder
		if st.Disk != nil {
			target = min(max(target, 0), st.Disk.Cylinders-1)
			if e.Faults != nil {
				target = e.Faults.Redirect(st.ID, target)
			}
		}
		seek, svc := st.serviceTimeAt(target, r.Size, e.sampleRotation, e.RNG)
		if st.Disk != nil {
			st.headTravel += int64(max(target-st.head, st.head-target))
		}
		if e.Trace != nil {
			e.Trace(TraceEvent{Now: now, DiskID: st.ID, Request: r, Head: st.head, Seek: seek, Service: svc, QueueLen: st.Sched.Len()})
		}
		if e.Decisions != nil {
			e.Decisions.commit(st, r, now, false)
		}
		for _, sh := range st.shadows {
			sh.observe(r, now)
		}
		// The head is en route to (then at) the clamped target, so
		// arrivals during the service window observe a valid cylinder.
		st.inSvc, st.head = r, target
		st.svcStart, st.svcSeek, st.svcTime = now, seek, svc
		// A deadline is met when service starts in time (the convention of
		// SCAN-EDF and §6's "serviced prior to the deadline"). Without
		// DropLate, expired requests are still serviced but counted late.
		if r.Deadline > 0 && now > r.Deadline {
			st.Col.OnLate(r)
			if e.OnLateStart != nil {
				e.OnLateStart(st, r, now)
			}
		}
		e.events.Push(event{time: now + svc, seq: uint64(st.ID), station: st})
	}
	if st.inSvc == nil && st.Sched.Len() == 0 {
		st.Sched.Next(now, st.head)
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
	if e.Faults != nil {
		verdict, delay := e.Faults.Outcome(st.ID, st.head, r, now)
		if verdict != fault.OK {
			e.faulted(st, r, verdict, delay, now)
			return
		}
	}
	st.Col.OnServed(r, st.svcSeek, st.svcTime, st.svcStart)
	if e.OnServed != nil {
		e.OnServed(st, r, now)
	}
}

// faulted handles a non-OK verdict on the completed service of r.
func (e *Engine) faulted(st *Station, r *core.Request, verdict fault.Verdict, delay, now int64) {
	st.Col.OnFaultAttempt(st.svcSeek, st.svcTime)
	if e.Trace != nil {
		e.Trace(TraceEvent{Now: now, DiskID: st.ID, Request: r, Head: st.head,
			Faulted: true, Dropped: verdict == fault.Exhausted, QueueLen: st.Sched.Len()})
	}
	switch verdict {
	case fault.Retry:
		e.At(now+delay, func(t int64) {
			if e.Faults.Down(st.ID) {
				// The disk died during the backoff; the retry has nowhere
				// to land.
				e.lose(st, r, t)
				return
			}
			st.Enqueue(r, t)
		})
	case fault.Exhausted:
		st.Col.OnDropped(r)
		st.Col.OnFaultDropped()
		if e.OnDropped != nil {
			e.OnDropped(st, r, now)
		}
	case fault.Lost:
		e.lose(st, r, now)
	}
}

// lose hands a request stranded on a failed disk to OnFaulted (arrays
// re-route it through reconstruction); without a handler it is dropped
// and attributed to faults.
func (e *Engine) lose(st *Station, r *core.Request, now int64) {
	e.Faults.Forget(r)
	if e.OnFaulted != nil {
		e.OnFaulted(st, r, now)
		return
	}
	st.Col.OnDropped(r)
	st.Col.OnFaultDropped()
	if e.OnDropped != nil {
		e.OnDropped(st, r, now)
	}
}
