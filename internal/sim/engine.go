package sim

import (
	"fmt"
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
// Every station is a disk with one head model, the one serve.Dispatcher
// also uses. The head moves to the (clamped) target the moment a service
// starts, so requests added during the service window see the position
// the head is en route to. A station that drains to idle with an empty
// queue probes its scheduler once more (a Next that returns nil), so
// stateful schedulers observe the empty point: the Cascaded-SFC
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
	// event time idle stations dispatch in index order, which makes runs
	// reproducible.
	Stations []*Station

	// OnServed fires when a station completes a service; OnDropped when a
	// station drops an expired request; OnLateStart when a service starts
	// past its deadline without DropLate. Multi-stage topologies (RAID
	// read-modify-write) layer their logical bookkeeping here — the hooks
	// run inline at the exact event time, so follow-up work they enqueue
	// participates in the same dispatch round.
	OnServed    func(st *Station, r *core.Request, now int64)
	OnDropped   func(st *Station, r *core.Request, now int64)
	OnLateStart func(st *Station, r *core.Request, now int64)
	// onFaulted fires when a request is lost to a failed disk (in flight
	// at failure time, or its retry timer landed on the dead station).
	// Only arrays can lose a disk, and RunArray re-routes the request
	// through reconstruction.
	onFaulted func(st *Station, r *core.Request, now int64)

	// opts is the run's configuration as Setup received it: the drop
	// policy and the observers (Trace, Decisions, Telemetry, Shadows) are
	// read from it directly.
	opts Options
	// faults is the injector built from opts.Fault; nil when the plan is
	// nil or zero. It draws from its own RNG stream, so a run without
	// one is byte-identical to a run with a zero plan.
	faults   *fault.Injector
	events   core.Heap4[event, eventCmp]
	now      int64
	timerSeq uint64
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
// configurations therefore replay identically, including the fault
// injector's draw sequence.
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
		if tel := e.opts.Telemetry; tel != nil {
			tel.sample(e, t)
		}
	}
	if tel := e.opts.Telemetry; tel != nil {
		tel.closeRun(e, e.now)
	}
	return e.now
}

// dispatch starts service on st if it is idle and has pending work,
// dropping expired requests first under DropLate. This is the single
// drop/late/service-time/metrics code path of the package.
func (e *Engine) dispatch(st *Station, now int64) {
	if e.faults != nil && e.faults.Down(st.ID) {
		// A failed disk serves nothing; the array layer drains and
		// re-routes its queue at failure time.
		return
	}
	for st.inSvc == nil && st.Sched.Len() > 0 {
		if e.opts.Decisions != nil {
			// Snapshot the candidate set before the scheduler decides; the
			// walk is read-only, so the decision itself is unperturbed.
			e.opts.Decisions.snapshot(st, now)
		}
		r := st.Sched.Next(now, st.head)
		if r == nil {
			return
		}
		if e.opts.DropLate && r.Deadline > 0 && now > r.Deadline {
			// Dropped requests never occupy the station, so serving others
			// "ahead" of them costs nothing: they must not contribute to
			// the §5.1 inversion counts. OnDispatch therefore runs only
			// after the expiry check.
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
			if e.OnDropped != nil {
				e.OnDropped(st, r, now)
			}
			continue
		}
		st.Col.OnDispatch(r, st.Sched.Each)
		target := r.Cylinder
		if st.Disk != nil {
			target = min(max(target, 0), st.Disk.Cylinders-1)
		}
		seek, svc := st.serviceTimeAt(target, r.Size)
		if st.Disk != nil {
			st.headTravel += int64(max(target-st.head, st.head-target))
		}
		if e.opts.Trace != nil {
			e.opts.Trace(TraceEvent{Now: now, DiskID: st.ID, Request: r, Head: st.head, Seek: seek, Service: svc, QueueLen: st.Sched.Len()})
		}
		if e.opts.Decisions != nil {
			e.opts.Decisions.commit(st, r, now, false)
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
	if e.faults != nil {
		verdict, delay := e.faults.Outcome(st.ID, st.head, r, now)
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
	if e.opts.Trace != nil {
		e.opts.Trace(TraceEvent{Now: now, DiskID: st.ID, Request: r, Head: st.head,
			Faulted: true, Dropped: verdict == fault.Exhausted, QueueLen: st.Sched.Len()})
	}
	switch verdict {
	case fault.Retry:
		e.At(now+delay, func(t int64) {
			if e.faults.Down(st.ID) {
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

// lose hands a request stranded on a failed disk to onFaulted, which
// re-routes it through reconstruction.
func (e *Engine) lose(st *Station, r *core.Request, now int64) {
	e.faults.Forget(r)
	e.onFaulted(st, r, now)
}
