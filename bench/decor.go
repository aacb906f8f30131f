package main

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"sfcsched/internal/cluster"
	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/serve"
	"sfcsched/internal/sim"
)

// This file holds the traced pass's decorators: wrappers owned by the
// benchmark around every layer boundary that can be reached from outside
// the program. The measured pass never constructs one.

// schedCounts are the exact counts a traced scheduler gathers next to its
// spans. They depend only on the simulated trajectory, never on host
// speed, so they must repeat exactly from run to run.
type schedCounts struct {
	Adds   int64 `json:"adds"`
	Nexts  int64 `json:"nexts"`
	Eaches int64 `json:"eaches"`
	// Dispatches counts Next calls that found a non-empty queue; DepthSum
	// and DepthMax describe the queue those calls saw.
	Dispatches int64 `json:"dispatches"`
	DepthSum   int64 `json:"depth_sum"`
	DepthMax   int64 `json:"depth_max"`
	// Visited sums the queue length at every Each call: the requests the
	// collector's inversion walk touched.
	Visited int64 `json:"visited"`
}

// tracedSched times Add, Next and Each of the scheduler it wraps. Each is
// the metrics collector's inversion walk, so its span carries the metrics
// layer's name rather than the scheduler's.
type tracedSched struct {
	inner           sched.Scheduler
	rec             *recorder
	add, next, each uint16
	n               *schedCounts
}

func (t *tracedSched) Name() string { return t.inner.Name() }
func (t *tracedSched) Len() int     { return t.inner.Len() }

func (t *tracedSched) Add(r *core.Request, now int64, head int) {
	t.n.Adds++
	i := t.rec.begin(t.add)
	t.inner.Add(r, now, head)
	t.rec.end(i)
}

func (t *tracedSched) Next(now int64, head int) *core.Request {
	t.n.Nexts++
	if d := int64(t.inner.Len()); d > 0 {
		t.n.Dispatches++
		t.n.DepthSum += d
		if d > t.n.DepthMax {
			t.n.DepthMax = d
		}
	}
	i := t.rec.begin(t.next)
	r := t.inner.Next(now, head)
	t.rec.end(i)
	return r
}

func (t *tracedSched) Each(visit func(*core.Request)) {
	t.n.Eaches++
	t.n.Visited += int64(t.inner.Len())
	i := t.rec.begin(t.each)
	t.inner.Each(visit)
	t.rec.end(i)
}

// rankedSched is a tracedSched around a scheduler that also exposes its
// characterization values and blocking window (core.Scheduler). The sim
// observers discover those capabilities by type assertion on the station's
// scheduler, so the decorator must forward them or decision traces and
// telemetry would silently see a lesser scheduler than the measured pass.
type rankedSched struct {
	*tracedSched
	vr sim.ValueRanker
	ws sim.WindowStater
}

func (r *rankedSched) RequestValue(q *core.Request, now int64, head int) uint64 {
	return r.vr.RequestValue(q, now, head)
}
func (r *rankedSched) Window() uint64 { return r.ws.Window() }

// traceSched wraps s so that its calls record spans named prefix+".add",
// prefix+".next" and each on rec, counting into n.
func traceSched(s sched.Scheduler, rec *recorder, prefix, each string, n *schedCounts) sched.Scheduler {
	t := &tracedSched{
		inner: s, rec: rec, n: n,
		add: rec.id(prefix + ".add"), next: rec.id(prefix + ".next"), each: rec.id(each),
	}
	vr, hasVR := s.(sim.ValueRanker)
	ws, hasWS := s.(sim.WindowStater)
	if hasVR && hasWS {
		return &rankedSched{tracedSched: t, vr: vr, ws: ws}
	}
	return t
}

// tracedRouter and tracedAdmitter time the cluster's per-arrival policy
// calls.
type tracedRouter struct {
	inner cluster.Router
	rec   *recorder
	name  uint16
}

func (t *tracedRouter) Name() string { return t.inner.Name() }
func (t *tracedRouter) Route(r *core.Request, nodes []*cluster.Node, now int64) int {
	i := t.rec.begin(t.name)
	n := t.inner.Route(r, nodes, now)
	t.rec.end(i)
	return n
}

type tracedAdmitter struct {
	inner cluster.Admitter
	rec   *recorder
	name  uint16
}

func (t *tracedAdmitter) Name() string { return t.inner.Name() }
func (t *tracedAdmitter) Admit(class int, now int64) bool {
	i := t.rec.begin(t.name)
	ok := t.inner.Admit(class, now)
	t.rec.end(i)
	return ok
}

// nullBackend is serve-live's zero-cost Backend: a service takes no time,
// so everything the workload measures is the dispatcher. It reports the
// Table 1 cylinder count so the dispatcher tracks a head position the way
// it does over a real disk.
//
// Serve calls are ordered by happens-before (the dispatcher holds one
// in-flight slot, returned only after Serve), so the plain fields below
// are written by one goroutine at a time; the client reads them only after
// receiving from done, which Serve sends on last.
type nullBackend struct {
	cylinders int
	served    atomic.Int64

	// entered is the wall-clock instant of the latest Serve entry, read by
	// the round-trip client after done.
	entered time.Time
	// done, when non-nil, receives one token per service.
	done chan struct{}
	// target and reached implement the saturate phase's finish line:
	// reached is closed by the service that brings served to target.
	target  int64
	reached chan struct{}

	// Instrumentation of the traced pass; all nil/zero in the measured one.
	rec       *recorder
	span      uint16
	submitted []int64 // per ring slot: ns since epoch when Submit was called
	epoch     time.Time
	waits     []float64 // µs from Submit call to Serve entry
	goPeak    int
}

func (b *nullBackend) Cylinders() int { return b.cylinders }

func (b *nullBackend) Serve(_ context.Context, r *core.Request, _ int) (serve.Completion, error) {
	// Everything shared with the client is read before the done token is
	// sent: once the client holds the token it may rearm these fields for
	// the next phase.
	done, reached, target := b.done, b.reached, b.target
	if done != nil {
		b.entered = time.Now()
	}
	if b.rec != nil {
		i := b.rec.begin(b.span)
		if b.submitted != nil {
			wait := int64(time.Since(b.epoch)) - b.submitted[r.ID]
			b.waits = append(b.waits, float64(wait)/1e3)
		}
		if g := runtime.NumGoroutine(); g > b.goPeak {
			b.goPeak = g
		}
		b.rec.end(i)
	}
	n := b.served.Add(1)
	if done != nil {
		done <- struct{}{}
	}
	if n == target {
		close(reached)
	}
	return serve.Completion{}, nil
}
