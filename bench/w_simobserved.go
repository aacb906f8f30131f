package main

import (
	"io"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// sim-observed is sim-single's cascaded arm used the way
// `schedsim -decision-trace -shadow -telemetry` uses it: all four observers
// attached. The observer rewrite of ROADMAP item 4 shows here and must
// leave sim-single still; a hot-path change that taxes attached observers
// shows here too. Attaching observers must not change a single simulated
// outcome, so its digest has to equal the bare arm's.
const (
	decisionRing      = 1024
	telemetryInterval = 100_000 // µs
)

type simObserved struct {
	p     params
	disk  *disk.Model
	arena workload.Arena
	trace []*core.Request
	reuse sim.Reuse

	decisions *sim.DecisionTrace
	telemetry *sim.Telemetry
	sink      sim.DecisionMetrics // keeps observer counters off the process globals

	bare digest // the undecorated, unobserved cascaded run
	warm []digest
	mod  model
	c    checks
}

func (w *simObserved) setup(tr *tracer) error {
	w.disk = tableOneDisk()
	gen := tr.begin("workload.open.arena")
	var err error
	w.trace, err = openTrace(w.p.seed, w.p.scaled(simRequests), w.disk.Cylinders).GenerateArena(&w.arena)
	tr.end(gen)
	if err != nil {
		return err
	}
	w.decisions = sim.NewDecisionTrace(decisionRing)
	w.decisions.SetMetrics(&w.sink)
	w.telemetry = sim.NewTelemetry(telemetryInterval)
	w.telemetry.SetMetrics(&w.sink)

	s, err := simArms[0].mk(w.disk.Cylinders)
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Config{Disk: w.disk, Scheduler: s, Reuse: &w.reuse, Options: w.bareOptions()}, w.trace)
	if err != nil {
		return err
	}
	w.bare = digestOf(res)
	w.mod = modelOf(res)

	rep, err := w.repeat(nil)
	if err != nil {
		return err
	}
	w.warm = rep.digests
	return nil
}

func (w *simObserved) bareOptions() sim.Options {
	return sim.Options{DropLate: true, Dims: prioDims, Levels: prioLevels, Seed: w.p.seed}
}

// observedOptions attaches the four observers. The shadow is single-use,
// so each run gets a fresh one (and a fresh EDF queue under it); the
// decision ring and the telemetry columns are recycled.
func (w *simObserved) observedOptions() sim.Options {
	o := w.bareOptions()
	o.Trace = sim.JSONLTrace(io.Discard)
	o.Decisions = w.decisions
	w.telemetry.Reset()
	o.Telemetry = w.telemetry
	sh := sim.NewShadow("edf", sched.NewEDF())
	sh.SetMetrics(&w.sink)
	o.Shadows = []*sim.Shadow{sh}
	return o
}

func (w *simObserved) reference() []digest { return w.warm }

func (w *simObserved) repeat(tr *tracer) (repetition, error) {
	return w.run(tr, w.trace)
}

func (w *simObserved) run(tr *tracer, trace []*core.Request) (repetition, error) {
	s, err := simArms[0].mk(w.disk.Cylinders)
	if err != nil {
		return repetition{}, err
	}
	opts := w.observedOptions()
	s = tr.sched(s, "core.sched", "metrics.each.cascaded")
	run := tr.begin("sim.run.observed")
	t0 := time.Now()
	res, err := sim.Run(sim.Config{Disk: w.disk, Scheduler: s, Reuse: &w.reuse, Options: opts}, trace)
	host := time.Since(t0)
	tr.end(run)
	if err != nil {
		return repetition{}, err
	}
	w.c.conserved("sim-observed", res.Collector)
	if len(res.Shadows) != 1 || res.Shadows[0].Decisions != res.Served {
		w.c.fail("sim-observed: shadow saw %v, want one report of %d decisions", res.Shadows, res.Served)
	}
	return repetition{ops: int64(len(trace)), host: host, digests: []digest{digestOf(res)}}, nil
}

// roundTrips times the smallest observed cell: fresh scheduler, fresh
// shadow, one request, all observers attached.
func (w *simObserved) roundTrips(tr *tracer, parts int) ([]float64, error) {
	n := max(w.p.scaled(simLatencyRuns)/parts, 1)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := w.run(nil, w.trace[:1]); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return out, nil
}

func (w *simObserved) model() model { return w.mod }

// verify: observers are non-perturbing — the observed digest is the bare
// arm's — and every dispatch decision reached the decision trace.
func (w *simObserved) verify(c *checks) {
	c.merge(&w.c)
	if len(w.warm) != 1 || w.warm[0] != w.bare {
		c.fail("sim-observed: observed digest %+v differs from the bare cascaded arm's %+v", w.warm, w.bare)
	}
	if w.decisions.Total() == 0 || w.telemetry.Rows() == 0 {
		c.fail("sim-observed: observers recorded nothing (decisions %d, telemetry rows %d)",
			w.decisions.Total(), w.telemetry.Rows())
	}
}

func (w *simObserved) traced(tr *tracer, stats map[string]spanStat, cost spanCost, out metricSet) {}

func (w *simObserved) close() {}
