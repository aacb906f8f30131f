package experiments

import (
	"fmt"
	"math"

	"sfcsched/internal/core"
	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// SFC2Config drives the stage-2 experiments (Figs. 8-9): real-time
// multi-priority requests with transfer-dominated service, so SFC3 is
// skipped (paper §5.2).
type SFC2Config struct {
	common
	Dims             int
	Levels           int
	MeanInterarrival int64
	Service          int64
	// DeadlineMin/Max bound the relative deadlines, µs (paper: 500-700 ms).
	DeadlineMin int64
	DeadlineMax int64
	// Curves are the SFC1 choices compared as series.
	Curves []string
}

// DefaultSFC2Config returns the §5.2 parameters.
func DefaultSFC2Config() SFC2Config {
	return SFC2Config{
		common:           common{Seed: 1, Requests: 4000},
		Dims:             3,
		Levels:           8,
		MeanInterarrival: 25_000,
		Service:          24_500,
		DeadlineMin:      500_000,
		DeadlineMax:      700_000,
		Curves:           []string{"sweep", "hilbert", "peano"},
	}
}

func (c SFC2Config) trace() ([]*core.Request, error) {
	return workload.Open{
		Seed:             c.Seed,
		Count:            c.Requests,
		MeanInterarrival: c.MeanInterarrival,
		Dims:             c.Dims,
		Levels:           c.Levels,
		DeadlineMin:      c.DeadlineMin,
		DeadlineMax:      c.DeadlineMax,
	}.Generate()
}

func (c SFC2Config) simConfig(s sched.Scheduler) sim.Config {
	return sim.Config{
		Scheduler:    s,
		FixedService: c.Service,
		Options:      sim.Options{DropLate: true, Dims: c.Dims, Levels: c.Levels, Seed: c.Seed},
	}
}

// edf runs the EDF baseline the stage-2 figures compare against; the
// result is freshly allocated and stays valid while the cells read it.
func (c SFC2Config) edf(trace []*core.Request) (*sim.Result, error) {
	return sim.Run(c.simConfig(sched.NewEDF()), trace)
}

// horizon bounds the absolute deadlines of the whole run.
func (c SFC2Config) horizon() int64 {
	return 2*int64(c.Requests)*c.MeanInterarrival + c.DeadlineMax
}

// scheduler builds the SFC1+SFC2 cascade with balance factor f. Stage-2
// output feeds the priority queue directly (§5.2 skips SFC3), so the
// dispatcher is fully preemptive.
func (c SFC2Config) scheduler(curve string, f float64) (*core.Scheduler, error) {
	cv, err := sfc.New(curve, c.Dims, uint32(c.Levels))
	if err != nil {
		return nil, err
	}
	tie := core.TieNone
	if f == 0 {
		tie = core.TieDeadline
	}
	if math.IsInf(f, 1) {
		tie = core.TiePriority
	}
	return core.NewScheduler(
		fmt.Sprintf("%s-f%g", curve, f),
		core.EncapsulatorConfig{
			Curve1: cv, Levels: c.Levels,
			UseDeadline: true, F: f, Tie: tie,
			DeadlineHorizon: c.horizon(), DeadlineSpan: c.DeadlineMax,
		},
		core.DispatcherConfig{Mode: core.FullyPreemptive},
		0,
	)
}

// Fig8 measures the effect of the SFC2 balance factor f on (a) priority
// inversion and (b) deadline misses, both as percentages of the EDF
// scheduler's values. Small f favors priority order at the cost of
// deadlines; large f converges to EDF's miss count.
func Fig8(cfg SFC2Config, fs []float64) (a, b *Result, err error) {
	if len(fs) == 0 {
		fs = []float64{0, 0.25, 0.5, 1, 2, 4, 8}
	}
	trace, err := cfg.trace()
	if err != nil {
		return nil, nil, err
	}
	edf, err := cfg.edf(trace)
	if err != nil {
		return nil, nil, err
	}
	baseInv := float64(edf.TotalInversions())
	baseMiss := float64(edf.TotalMisses())
	note := fmt.Sprintf("dims=%d levels=%d deadlines=[%d,%d]ms service=%dms; EDF: %0.f inversions, %.0f misses",
		cfg.Dims, cfg.Levels, cfg.DeadlineMin/1000, cfg.DeadlineMax/1000, cfg.Service/1000, baseInv, baseMiss)
	a = &Result{
		ID: "fig8a", Title: "Priority inversion vs balance factor f (% of EDF)",
		XLabel: "f", YLabel: "total priority inversions, % of EDF",
		X: fs, Notes: []string{note},
	}
	b = &Result{
		ID: "fig8b", Title: "Deadline misses vs balance factor f (% of EDF)",
		XLabel: "f", YLabel: "deadline misses, % of EDF",
		X: fs, Notes: []string{note},
	}
	return a, b, sweep(cfg.Workers, cfg.Curves, func(x, s int) ([]float64, error) {
		sc, err := cfg.scheduler(cfg.Curves[s], fs[x])
		if err != nil {
			return nil, err
		}
		return runCell(cfg.simConfig(sc), trace, func(r *sim.Result) []float64 {
			return []float64{
				percent(float64(r.TotalInversions()), baseInv),
				percent(float64(r.TotalMisses()), baseMiss),
			}
		})
	}, a, b)
}

// Fig9 measures selectivity: how deadline misses distribute over priority
// levels within each dimension, for EDF versus the Cascaded-SFC scheduler
// with different SFC1 curves at f = 1. It returns one Result per dimension
// (the paper's three sub-figures); the ideal scheduler concentrates all
// misses in the lowest-priority levels.
func Fig9(cfg SFC2Config, f float64) ([]*Result, error) {
	if f == 0 {
		f = 1
	}
	trace, err := cfg.trace()
	if err != nil {
		return nil, err
	}
	// One run per series answers every (dimension, level) point of that
	// series, so the runs fan out here and sweep only unpacks them. The
	// results are retained, hence un-reused.
	names := append([]string{"edf"}, cfg.Curves...)
	runs, err := runner.Map(cfg.Workers, len(names), func(s int) (*sim.Result, error) {
		if s == 0 {
			return cfg.edf(trace)
		}
		sc, err := cfg.scheduler(names[s], f)
		if err != nil {
			return nil, err
		}
		return sim.Run(cfg.simConfig(sc), trace)
	})
	if err != nil {
		return nil, err
	}
	levels := make([]float64, cfg.Levels)
	for l := range levels {
		levels[l] = float64(l + 1)
	}
	out := make([]*Result, cfg.Dims)
	for k := range out {
		out[k] = &Result{
			ID:     fmt.Sprintf("fig9-dim%d", k+1),
			Title:  fmt.Sprintf("Deadline misses per priority level, dimension %d of %d", k+1, cfg.Dims),
			XLabel: "level",
			YLabel: "deadline misses (level 1 = highest priority)",
			X:      levels,
			Notes: []string{
				fmt.Sprintf("f=%g; dims=%d levels=%d deadlines=[%d,%d]ms", f,
					cfg.Dims, cfg.Levels, cfg.DeadlineMin/1000, cfg.DeadlineMax/1000),
			},
		}
	}
	return out, sweep(1, names, func(x, s int) ([]float64, error) {
		ys := make([]float64, cfg.Dims)
		for k := range ys {
			ys[k] = float64(runs[s].MissesPerDimLevel[k][x])
		}
		return ys, nil
	}, out...)
}
