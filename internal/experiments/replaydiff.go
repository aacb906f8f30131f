package experiments

import (
	"bytes"
	"fmt"
	"io"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// replayDiffSchedulers lists the disciplines the round trip is checked
// under: the cascaded scheduler (stateful SFC stages, the hardest case),
// the paper's strongest baseline, and the naive baseline.
var replayDiffSchedulers = []policy{
	{"cascaded", func() (sched.Scheduler, error) {
		return core.NewScheduler("cascaded",
			core.EncapsulatorConfig{Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 800_000},
			core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, 0.05)
	}},
	baseline("scan-edf"),
	baseline("fcfs"),
}

// replayDiff is the record→replay regression experiment: every built-in
// multi-client scenario (workload.Scenarios) runs under every scheduler,
// at a load that produces both services and deadline drops; its JSONL
// dispatch trace is recorded, loaded back through workload.LoadReplay and
// re-executed on a fresh scheduler, and the two recordings are compared
// byte for byte. It reports two results over the scenario axis:
// per-scheduler deadline-drop rates (the workload diversity the scenarios
// exist to produce) and per-scheduler replay divergence, which must be 0
// everywhere — a non-zero divergence is a determinism regression, the
// standing gate the CI cmp step holds between builds. Deterministic: the
// same seed renders the same CSV for any worker count.
func replayDiff(_ io.Writer, p Params) ([]*Result, error) {
	p = p.sized(3000)
	model, err := xp32150()
	if err != nil {
		return nil, err
	}

	// Each scenario's trace is generated once, up front, and shared
	// read-only by the cells of its sweep point.
	scenarios := workload.Scenarios()
	x := make([]float64, len(scenarios))
	dims := make([]int, len(scenarios))
	traces := make([][]*core.Request, len(scenarios))
	notes := []string{fmt.Sprintf("%d requests per scenario; scenario axis:", p.Requests)}
	for i, name := range scenarios {
		x[i] = float64(i)
		notes = append(notes, fmt.Sprintf("  x=%d: %s", i, name))
		spec, err := workload.ScenarioSpec(name, p.Seed, p.Requests, model.Cylinders)
		if err != nil {
			return nil, err
		}
		dims[i] = spec.Dims()
		if traces[i], err = spec.Generate(); err != nil {
			return nil, err
		}
	}
	drops := &Result{
		ID:     "replaydiff",
		Title:  "Deadline drops per multi-client scenario",
		XLabel: "scenario",
		YLabel: "dropped requests (%)",
		X:      x,
		Notes:  notes,
	}
	diverged := &Result{
		ID:     "replaydiff",
		Title:  "Record→replay divergence per scenario (must be 0)",
		XLabel: "scenario",
		YLabel: "diverging replays (0 = byte-identical)",
		X:      x,
	}

	// A cell records its scenario under its scheduler, replays the
	// recording and compares the two byte for byte.
	return []*Result{drops, diverged}, sweep(p.Workers, policyNames(replayDiffSchedulers), func(x, s int) ([]float64, error) {
		trace := traces[x]
		var drop float64
		record := func(reqs []*core.Request, buf *bytes.Buffer) error {
			sc, err := replayDiffSchedulers[s].build()
			if err != nil {
				return err
			}
			return runReused(sim.Config{
				Disk: model, Scheduler: sc,
				Options: sim.Options{
					DropLate: true, Dims: dims[x], Levels: 8,
					Trace: sim.JSONLTrace(buf),
				},
			}, reqs, func(res *sim.Result) error {
				drop = percent(float64(res.Dropped), float64(res.Served+res.Dropped))
				return nil
			})
		}
		var recA, recB bytes.Buffer
		if err := record(trace, &recA); err != nil {
			return nil, err
		}
		rec, err := workload.LoadReplay(bytes.NewReader(recA.Bytes()))
		if err != nil {
			return nil, err
		}
		if rec.Len() != len(trace) {
			return nil, fmt.Errorf("replaydiff: %s/%s: replay reconstructed %d of %d requests",
				scenarios[x], replayDiffSchedulers[s].name, rec.Len(), len(trace))
		}
		if err := record(rec.Generate(), &recB); err != nil {
			return nil, err
		}
		var diverge float64
		if !bytes.Equal(recA.Bytes(), recB.Bytes()) {
			diverge = 1
		}
		return []float64{drop, diverge}, nil
	}, drops, diverged)
}
