// Package sim is the event-driven simulator driving every experiment: it
// feeds a pre-generated trace to one or more schedulers, models service
// times with the disk model, and reports the metrics of the paper's §5-6.
//
// Every topology runs on the same deterministic event-heap Engine and
// assembles its run in one place, Engine.Setup: Run drives a single
// Station (one disk, one scheduler) through a Reuse — the caller's, or a
// throw-away one for a fresh run — RunArray drives one Station per disk
// of a RAID-5 array with the logical/physical mapping layered on top, and
// internal/cluster one Station per member disk behind a router. Events are
// ordered by (time, seq), so identical configurations replay identically.
package sim

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
)

// Options is the configuration core shared by Config and ArrayConfig: the
// knobs that mean the same thing on every topology.
type Options struct {
	// Seed is unused: every service is charged the average rotational
	// latency, so a run draws nothing. It stays until the frozen
	// benchmark, which sets it, is next changed.
	Seed uint64
	// DropLate drops requests whose deadline has passed at dispatch time
	// (the §6 semantics: a request not serviced prior to its deadline is
	// lost). When false, expired requests are still serviced and counted
	// late.
	DropLate bool
	// Dims and Levels size the metrics collectors. Zero infers them from
	// the trace on every topology (InferShape): the widest priority vector
	// and the highest level present.
	Dims   int
	Levels int
	// Trace, when non-nil, receives one TraceEvent per dispatch decision
	// (served or dropped) — the debugging stream behind policy-bug hunts.
	// On array runs every physical dispatch is reported with its DiskID.
	// JSONLTrace adapts an io.Writer into a hook. The hook runs inline with
	// the simulation; a slow sink slows the run, not the modeled clock.
	Trace func(TraceEvent)
	// Fault, when non-nil and non-zero, injects the deterministic fault
	// plan (transient errors with bounded retry and — on arrays —
	// whole-disk failure with degraded reads and optional rebuild). A nil
	// or zero plan leaves the run byte-identical to one without fault
	// support.
	Fault *fault.Plan
	// Decisions, when non-nil, captures one DecisionRecord per dispatch
	// decision (candidate set, chosen request, slack distribution, window
	// state) and hands it to the trace's OnRecord hook; DecisionJSONL
	// adapts an io.Writer into one. Nothing is retained. Nil costs
	// nothing.
	Decisions *DecisionTrace
	// Telemetry, when non-nil, samples per-station queue depth,
	// utilization, value spread and slack distribution at the sampler's
	// interval and hands each row to its OnRow hook; TelemetryCSV adapts
	// an io.Writer into one. Sampling is non-perturbing: the simulated
	// trajectory is identical with or without it.
	Telemetry *Telemetry
	// Shadows attaches counterfactual schedulers that observe the same
	// arrival stream and record what they would have dispatched, without
	// perturbing the run. Each Shadow is single-use and rides a
	// single-station run (sim.Run); Setup rejects shadows on arrays and
	// clusters. Reports land in Result.Shadows in the same order.
	Shadows []*Shadow
}

// Config configures one single-disk simulation run.
type Config struct {
	// Disk models service times. Required unless FixedService is set.
	Disk *disk.Model
	// Scheduler is the queue discipline under test. Required.
	Scheduler sched.Scheduler
	// FixedService, when positive, overrides the disk model with a
	// constant service time (useful for pure queueing experiments).
	FixedService int64

	// Reuse, when non-nil, recycles the collector, station and event heap
	// of previous runs through the same Reuse instead of allocating
	// fresh ones — see Reuse for the ownership and concurrency rules. The
	// simulated trajectory is identical either way.
	Reuse *Reuse

	Options
}

// Result is the outcome of a run.
type Result struct {
	*metrics.Collector
	// HeadTravel is the total cylinders traveled.
	HeadTravel int64
	// Scheduler echoes the scheduler's name.
	Scheduler string
	// Faults snapshots the fault injector's counters; nil when the run
	// had no (or a zero) fault plan.
	Faults *fault.Stats
	// Shadows holds one divergence report per attached shadow, in
	// Options.Shadows order; empty when the run had none.
	Shadows []ShadowReport
}

// Run simulates trace (sorted by arrival time) under cfg as a one-station
// Engine. The run always goes through a Reuse — cfg.Reuse, or a throw-away
// one — so fresh and recycled runs are the same code.
func Run(cfg Config, trace []*core.Request) (*Result, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("sim: Scheduler is required")
	}
	if cfg.Disk == nil && cfg.FixedService <= 0 {
		return nil, fmt.Errorf("sim: need a Disk model or FixedService")
	}
	ru := cfg.Reuse
	if ru == nil {
		ru = new(Reuse)
	}
	col := ru.collector(InferShape(cfg.Dims, cfg.Levels, trace))
	st, eng := &ru.st, &ru.eng
	*st = Station{
		Sched:        cfg.Scheduler,
		Disk:         cfg.Disk,
		Col:          col,
		FixedService: cfg.FixedService,
	}
	ru.stations[0] = st
	if err := eng.Setup(cfg.Options, ru.stations[:], false); err != nil {
		return nil, err
	}
	col.Makespan = eng.Run(trace, func(r *core.Request, _ int64) {
		col.OnArrival(r)
		st.Enqueue(r, r.Arrival)
	})
	return &Result{
		Collector:  col,
		HeadTravel: st.HeadTravel(),
		Scheduler:  cfg.Scheduler.Name(),
		Faults:     eng.faultStats(),
		Shadows:    eng.shadowReports(),
	}, nil
}

// MustRun is Run for static configurations.
func MustRun(cfg Config, trace []*core.Request) *Result {
	res, err := Run(cfg, trace)
	if err != nil {
		panic(err)
	}
	return res
}

// InferShape fills zero dims/levels from the widest priority vector and
// the highest level present in the trace — the one shape inference behind
// Run, RunArray and cluster.Run.
func InferShape(dims, levels int, trace []*core.Request) (int, int) {
	if dims != 0 && levels != 0 {
		return dims, levels
	}
	width, top := 0, 0
	for _, r := range trace {
		width = max(width, len(r.Priorities))
		for _, p := range r.Priorities {
			top = max(top, p)
		}
	}
	if dims == 0 {
		dims = width
	}
	if levels == 0 {
		levels = top + 1
	}
	return dims, levels
}
