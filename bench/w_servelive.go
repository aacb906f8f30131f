package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/serve"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// serve-live runs the wall-clock path: serve.Dispatcher over
// core.ShardedScheduler at dilation 1 with one service in flight, against a
// Backend that costs nothing. It is a closed loop because it measures the
// dispatcher's capacity, not a user population (the open-loop,
// sleep-dominated case is serve.Calibrate's). It is the only workload where
// goroutine hand-off, channels, atomics, the per-dispatch goroutine and the
// sharded ingress are on the path; the sim layers do nothing.
//
//   - round trips: one client, one outstanding request — submit, wait for
//     the backend to be entered, repeat.
//   - saturate: one producer goroutine (producer + dispatch loop = the two
//     cores) pushing through MaxQueue backpressure, requests recycled from a
//     ring.
const (
	liveRing       = 8192 // recycled request objects; > liveMaxQueue so none is queued twice
	liveMaxQueue   = 1024
	liveRoundTrips = 300_000
	liveSaturate   = 200_000 // submissions per repetition
	livePreload    = 5_000   // requests of the exact-order check
)

type serveLive struct {
	p     params
	disk  *disk.Model
	arena workload.Arena
	ring  []*core.Request

	backend *nullBackend
	disp    *serve.Dispatcher
	sink    *serve.Metrics

	warm []digest
	mod  model
	c    checks

	// Filled by the traced pass.
	tracedRTT   []float64
	satWaits    []float64 // µs from Submit call to Serve entry, saturate phase
	satAllocs   float64
	satRequests int64
}

func (w *serveLive) setup(tr *tracer) error {
	w.close()
	w.disk = tableOneDisk()
	// The ring carries no deadlines: a recycled request has no meaningful
	// absolute deadline on a clock that keeps running.
	open := openTrace(w.p.seed, liveRing, w.disk.Cylinders)
	open.DeadlineMin, open.DeadlineMax = 0, 0
	gen := tr.begin("workload.open.arena")
	var err error
	w.ring, err = open.GenerateArena(&w.arena)
	tr.end(gen)
	if err != nil {
		return err
	}
	for i, r := range w.ring {
		r.ID, r.Arrival = uint64(i), 0 // ID doubles as the ring slot
	}
	if err := w.checkPreloadOrder(); err != nil {
		return err
	}
	w.backend = &nullBackend{cylinders: w.disk.Cylinders}
	w.sink = &serve.Metrics{}
	if w.disp, err = w.newDispatcher(w.backend, w.sink, liveMaxQueue, false); err != nil {
		return err
	}
	w.disp.Start(context.Background())
	rep, err := w.saturate(nil)
	if err != nil {
		return err
	}
	w.warm = rep.digests
	if tr != nil {
		// Attached only now: the warm-up's last service has returned (its
		// finish line is closed), so no Serve call is reading these fields.
		track := newRecorder(4*w.p.scaled(liveSaturate) + w.p.scaled(liveRoundTrips)/4)
		tr.extra = append(tr.extra, track)
		w.backend.rec, w.backend.span = track, track.id("serve.backend")
		w.backend.epoch = track.epoch
		w.backend.submitted = make([]int64, liveRing)
	}
	return nil
}

func (w *serveLive) newDispatcher(b serve.Backend, m *serve.Metrics, maxQueue int, records bool) (*serve.Dispatcher, error) {
	ecfg, err := cascadeConfig(prioDims, w.disk.Cylinders)
	if err != nil {
		return nil, err
	}
	ss, err := core.NewShardedScheduler("serve-live", ecfg, 0)
	if err != nil {
		return nil, err
	}
	ss.SetMetrics(&core.Metrics{})
	clock, err := serve.NewClock(1)
	if err != nil {
		return nil, err
	}
	return serve.New(serve.Config{
		Sched: ss, Backend: b, Clock: clock,
		InFlight: 1, MaxQueue: maxQueue, Metrics: m, KeepRecords: records,
	})
}

// checkPreloadOrder is the PR 9 theorem as an output check: a trace staged
// with Preload before Start must be dispatched by the live dispatcher in
// exactly the order sim.Run dispatches it. The simulated run of that trace
// is also where serve-live's model figures come from — they describe the
// order the live path provably reproduced.
func (w *serveLive) checkPreloadOrder() error {
	var arena workload.Arena
	open := openTrace(w.p.seed^0x5eed, w.p.scaled(livePreload), w.disk.Cylinders)
	open.DeadlineMin, open.DeadlineMax = 5_000_000, 60_000_000
	trace, err := open.GenerateArena(&arena)
	if err != nil {
		return err
	}
	for _, r := range trace {
		r.Deadline -= r.Arrival
		r.Arrival = 0
	}
	ecfg, err := cascadeConfig(prioDims, w.disk.Cylinders)
	if err != nil {
		return err
	}
	simSched, err := core.NewShardedScheduler("serve-live-sim", ecfg, 0)
	if err != nil {
		return err
	}
	simSched.SetMetrics(&core.Metrics{})
	var order uint64
	res, err := sim.Run(sim.Config{
		Disk: w.disk, Scheduler: simSched,
		Options: sim.Options{Dims: prioDims, Levels: prioLevels, Trace: func(ev sim.TraceEvent) {
			order = mixOrder(order, ev.Request.ID)
		}},
	}, trace)
	if err != nil {
		return err
	}
	w.c.conserved("serve-live preload sim", res.Collector)
	w.mod = modelOf(res)

	m := &serve.Metrics{}
	d, err := w.newDispatcher(&nullBackend{cylinders: w.disk.Cylinders}, m, 0, true)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := serve.Preload(ctx, d, trace); err != nil {
		return err
	}
	d.Start(ctx)
	if err := d.Drain(ctx); err != nil {
		return err
	}
	var live uint64
	recs := d.Records()
	for _, rec := range recs {
		live = mixOrder(live, rec.ID)
	}
	if len(recs) != len(trace) || live != order {
		w.c.fail("serve-live: preloaded dispatch order differs from sim.Run's (%d live records, %d requests, order %x vs %x)",
			len(recs), len(trace), live, order)
	}
	if d.HeadTravel() != res.HeadTravel {
		w.c.fail("serve-live: preloaded head travel %d, sim.Run's %d", d.HeadTravel(), res.HeadTravel)
	}
	w.checkLedger("preload", m)
	return nil
}

// checkLedger: a drained dispatcher completed everything it accepted and
// refused or abandoned nothing.
func (w *serveLive) checkLedger(what string, m *serve.Metrics) {
	if s, c := m.Submitted.Load(), m.Completed.Load(); s != c {
		w.c.fail("serve-live %s: completed %d of %d submitted", what, c, s)
	}
	if r, a, dr := m.Rejected.Load(), m.Abandoned.Load(), m.Dropped.Load(); r+a+dr != 0 {
		w.c.fail("serve-live %s: rejected %d, abandoned %d, dropped %d, want none", what, r, a, dr)
	}
}

func (w *serveLive) reference() []digest { return w.warm }

func (w *serveLive) repeat(tr *tracer) (repetition, error) { return w.saturate(tr) }

// saturate pushes one repetition's submissions through backpressure and
// stops the clock when the backend has been entered for the last of them.
func (w *serveLive) saturate(tr *tracer) (repetition, error) {
	n := w.p.scaled(liveSaturate)
	b := w.backend
	before := b.served.Load()
	b.reached = make(chan struct{})
	b.target = before + int64(n)
	ctx := context.Background()
	mask := len(w.ring) - 1

	var submit uint16
	var ms runtime.MemStats
	var mallocs uint64
	waitsBefore := len(b.waits)
	if tr != nil {
		submit = tr.rec.id("serve.submit")
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r := w.ring[i&mask]
		var err error
		if tr != nil {
			b.submitted[r.ID] = int64(time.Since(b.epoch))
			s := tr.rec.begin(submit)
			err = w.disp.Submit(ctx, r)
			tr.rec.end(s)
		} else {
			err = w.disp.Submit(ctx, r)
		}
		if err != nil {
			return repetition{}, fmt.Errorf("serve-live: submit %d: %w", i, err)
		}
	}
	<-b.reached
	host := time.Since(t0)
	if tr != nil {
		runtime.ReadMemStats(&ms)
		w.satAllocs += float64(ms.Mallocs - mallocs)
		w.satRequests += int64(n)
		w.satWaits = append(w.satWaits, b.waits[waitsBefore:]...)
	}
	// The only outcome a zero-cost backend leaves to reproduce is the count.
	return repetition{ops: int64(n), host: host, digests: []digest{{Served: uint64(n)}}}, nil
}

// roundTrips measures submit → Backend.Serve entry with one request
// outstanding, on the benchmark's own clock (serve.Clock.Now is
// µs-granular).
func (w *serveLive) roundTrips(tr *tracer, parts int) ([]float64, error) {
	n := max(w.p.scaled(liveRoundTrips)/parts, 1)
	b := w.backend
	b.done = make(chan struct{}, 1)
	defer func() { b.done = nil }()
	ctx := context.Background()
	mask := len(w.ring) - 1
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := w.disp.Submit(ctx, w.ring[i&mask]); err != nil {
			return nil, fmt.Errorf("serve-live: round trip %d: %w", i, err)
		}
		<-b.done
		out = append(out, float64(b.entered.Sub(t0).Nanoseconds())/1e3)
	}
	if tr != nil {
		w.tracedRTT = append(w.tracedRTT, out...)
	}
	return out, nil
}

func (w *serveLive) model() model { return w.mod }

// verify drains the dispatcher and checks its ledger.
func (w *serveLive) verify(c *checks) {
	w.close()
	c.merge(&w.c)
}

func (w *serveLive) traced(tr *tracer, stats map[string]spanStat, cost spanCost, out metricSet) {
	b := w.backend
	sort.Float64s(w.tracedRTT)
	p99, _ := percentile(w.tracedRTT, 0.99)
	p999, _ := percentile(w.tracedRTT, 0.999)
	out["serve.rtt_p99_us"] = metric{Value: p99, Unit: "us", Samples: len(w.tracedRTT)}
	out["serve.rtt_p999_us"] = metric{Value: p999, Unit: "us", Samples: len(w.tracedRTT)}
	sort.Float64s(w.satWaits)
	p50, _ := percentile(w.satWaits, 0.50)
	w99, _ := percentile(w.satWaits, 0.99)
	out["serve.queue_wait_p50_us"] = metric{Value: p50, Unit: "us", Samples: len(w.satWaits)}
	out["serve.queue_wait_p99_us"] = metric{Value: w99, Unit: "us", Samples: len(w.satWaits)}
	out.set("serve.backpressure_waits", float64(w.sink.BackpressureWaits.Load()), "count")
	if w.satRequests > 0 {
		out.set("serve.allocs_per_req", w.satAllocs/float64(w.satRequests), "count")
	}
	out.set("serve.goroutines_peak", float64(b.goPeak), "count")
}

// close drains the running dispatcher, if any, and checks its ledger.
func (w *serveLive) close() {
	if w.disp == nil {
		return
	}
	if err := w.disp.Drain(context.Background()); err != nil {
		w.c.fail("serve-live: drain: %v", err)
	}
	w.checkLedger("drain", w.sink)
	w.disp = nil
}
