package main

import (
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// sim-single is the path every §5–6 figure and sweep cell runs: sim.Run on
// an arena trace through a recycled engine (sim.Reuse), DropLate, averaged
// rotation, no observers. One repetition is one fresh-scheduler run of each
// of four arms over the same trace, so engine, collector (whose inversion
// walk grows with queue depth), disk model and scheduler appear in their
// natural proportions, and sfc+core are under half of one arm of four.
const (
	simRequests     = 100_000
	simInterarrival = 20_000 // µs, Poisson mean: ≈8 % loss under the cascade
	simLatencyRuns  = 20_000 // one-request runs timed for rtt_p50_us
)

// openTrace is the §5.3-shaped open workload all three single-disk sim
// workloads share: 3 dims × 8 levels, deadlines 500–700 ms, blocks
// 4–128 KB growing with the priority level.
func openTrace(seed uint64, count, cylinders int) workload.Open {
	return workload.Open{
		Seed: seed, Count: count, MeanInterarrival: simInterarrival,
		Dims: prioDims, Levels: prioLevels,
		DeadlineMin: deadlineMin, DeadlineMax: deadlineMax,
		Cylinders: cylinders, SizeMin: 4 << 10, SizeMax: 128 << 10,
	}
}

type simSingle struct {
	p     params
	disk  *disk.Model
	arena workload.Arena
	trace []*core.Request
	reuse sim.Reuse

	warm []digest
	mod  model
	c    checks // conservation failures seen in any run
}

func (w *simSingle) options() sim.Options {
	return sim.Options{DropLate: true, Dims: prioDims, Levels: prioLevels, Seed: w.p.seed}
}

func (w *simSingle) setup(tr *tracer) error {
	w.disk = tableOneDisk()
	gen := tr.begin("workload.open.arena")
	var err error
	w.trace, err = openTrace(w.p.seed, w.p.scaled(simRequests), w.disk.Cylinders).GenerateArena(&w.arena)
	tr.end(gen)
	if err != nil {
		return err
	}
	rep, err := w.repeat(nil)
	if err != nil {
		return err
	}
	w.warm = rep.digests
	return nil
}

// runArm runs one arm over trace on the recycled engine and returns its
// digest and the host time of sim.Run alone (scheduler construction is
// set-up a sweep cell also pays, but not simulation).
func (w *simSingle) runArm(arm simArm, tr *tracer, trace []*core.Request) (digest, time.Duration, error) {
	s, err := arm.mk(w.disk.Cylinders)
	if err != nil {
		return digest{}, 0, err
	}
	s = tr.sched(s, armPrefix(arm.name), "metrics.each."+arm.name)
	run := tr.begin("sim.run." + arm.name)
	t0 := time.Now()
	res, err := sim.Run(sim.Config{Disk: w.disk, Scheduler: s, Reuse: &w.reuse, Options: w.options()}, trace)
	host := time.Since(t0)
	tr.end(run)
	if err != nil {
		return digest{}, 0, err
	}
	w.c.conserved("sim-single "+arm.name, res.Collector)
	if arm.name == "cascaded" && len(trace) > 1 {
		w.mod = modelOf(res)
	}
	return digestOf(res), host, nil
}

// armPrefix maps a sim arm to the span prefix (and per-layer metric
// family) its scheduler records under.
func armPrefix(arm string) string {
	switch arm {
	case "cascaded":
		return "core.sched"
	case "scan-edf":
		return "sched.scanedf"
	}
	return "sched." + arm
}

// modelOf derives the simulated-disk figures from a single-disk result.
func modelOf(res *sim.Result) model {
	m := model{lossPct: 100 * float64(res.Dropped+res.Late) / float64(res.Arrived)}
	if res.Served > 0 {
		m.seekMsPerServed = float64(res.SeekTime) / 1e3 / float64(res.Served)
		m.inversionsPerDispatch = float64(res.TotalInversions()) / float64(res.Served)
	}
	return m
}

func (w *simSingle) reference() []digest { return w.warm }

func (w *simSingle) repeat(tr *tracer) (repetition, error) {
	rep := repetition{}
	for _, arm := range simArms {
		d, host, err := w.runArm(arm, tr, w.trace)
		if err != nil {
			return rep, err
		}
		rep.ops += int64(len(w.trace))
		rep.host += host
		rep.digests = append(rep.digests, d)
	}
	return rep, nil
}

// roundTrips times the smallest cell a sweep can run: build the cascaded
// scheduler and simulate a one-request trace on the recycled engine. It is
// the fixed cost every cell pays before its first request.
func (w *simSingle) roundTrips(tr *tracer, parts int) ([]float64, error) {
	one := w.trace[:1]
	n := max(w.p.scaled(simLatencyRuns)/parts, 1)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := simArms[0].mk(w.disk.Cylinders)
		if err != nil {
			return nil, err
		}
		if _, err := sim.Run(sim.Config{Disk: w.disk, Scheduler: s, Reuse: &w.reuse, Options: w.options()}, one); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return out, nil
}

func (w *simSingle) model() model { return w.mod }

// verify: besides conservation in every run, a run on a fresh engine must
// reproduce the recycled engine's digest (sim.Reuse changes no outcome).
func (w *simSingle) verify(c *checks) {
	c.merge(&w.c)
	for i, arm := range simArms {
		s, err := arm.mk(w.disk.Cylinders)
		if err != nil {
			c.fail("sim-single %s: %v", arm.name, err)
			continue
		}
		res, err := sim.Run(sim.Config{Disk: w.disk, Scheduler: s, Options: w.options()}, w.trace)
		if err != nil {
			c.fail("sim-single %s fresh run: %v", arm.name, err)
			continue
		}
		if d := digestOf(res); d != w.warm[i] {
			c.fail("sim-single %s: fresh-engine digest %+v differs from the reused engine's %+v", arm.name, d, w.warm[i])
		}
	}
}

func (w *simSingle) traced(tr *tracer, stats map[string]spanStat, cost spanCost, out metricSet) {
	reqs := float64(len(w.trace))
	reps := float64(stats["sim.run.cascaded"].Count)
	if reps == 0 {
		return
	}
	out.set("core.sched.add_ns", perCall(stats, cost, "core.sched.add"), "ns")
	out.set("core.sched.next_ns", perCall(stats, cost, "core.sched.next"), "ns")
	cn := tr.counts["core.sched"]
	out.set("core.sched.calls_per_req", float64(cn.Adds+cn.Nexts+cn.Eaches)/(reqs*reps), "count")
	for _, arm := range []string{"cscan", "scanedf", "edf"} {
		out.set("sched."+arm+".add_ns", perCall(stats, cost, "sched."+arm+".add"), "ns")
		out.set("sched."+arm+".next_ns", perCall(stats, cost, "sched."+arm+".next"), "ns")
	}
	out.set("sched.queue_depth_mean", float64(cn.DepthSum)/float64(cn.Dispatches), "count")
	out.set("sched.queue_depth_max", float64(cn.DepthMax), "count")
	out.set("metrics.pending_visited_per_dispatch", float64(cn.Visited)/float64(cn.Eaches), "count")

	// The cascaded arm's run, split three ways: scheduler spans, the
	// collector's inversion walk, and what is left — engine, collector
	// bookkeeping and disk model, the middle no benchmark attributed before.
	run := stats["sim.run.cascaded"]
	schedNs := stats["core.sched.add"].net(cost) + stats["core.sched.next"].net(cost)
	out.set("sim.run.self_ns_per_req", run.netSelf(cost)/(reqs*reps), "ns")
	out.set("sim.run.sched_share", schedNs/run.net(cost), "ratio")
	out.set("metrics.each_ns_per_req", stats["metrics.each.cascaded"].net(cost)/(reqs*reps), "ns")
}

func (w *simSingle) close() {}
