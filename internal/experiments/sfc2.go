package experiments

import (
	"fmt"
	"io"
	"math"

	"sfcsched/internal/core"
	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// The stage-2 parameters of Figs. 8-9 (paper §5.2): real-time
// multi-priority requests with transfer-dominated service, so SFC3 is
// skipped.
const (
	stage2Dims         = 3
	stage2Levels       = 8
	stage2Interarrival = 25_000
	// The relative deadlines span 500-700 ms, as in the paper; µs.
	stage2DeadlineMin = 500_000
	stage2DeadlineMax = 700_000
)

// stage2Curves are the SFC1 choices compared as series.
var stage2Curves = []string{"sweep", "hilbert", "peano"}

// stage2 is one stage-2 workload at a constant service time, µs: Fig. 8
// runs just below the interarrival mean, Fig. 9 above it.
type stage2 struct {
	Params
	service int64
}

func newStage2(p Params, service int64) stage2 { return stage2{p.sized(4000), service} }

func (c stage2) trace() ([]*core.Request, error) {
	return workload.Open{
		Seed:             c.Seed,
		Count:            c.Requests,
		MeanInterarrival: stage2Interarrival,
		Dims:             stage2Dims,
		Levels:           stage2Levels,
		DeadlineMin:      stage2DeadlineMin,
		DeadlineMax:      stage2DeadlineMax,
	}.Generate()
}

func (c stage2) simConfig(s sched.Scheduler) sim.Config {
	return sim.Config{
		Scheduler:    s,
		FixedService: c.service,
		Options:      sim.Options{DropLate: true, Dims: stage2Dims, Levels: stage2Levels},
	}
}

// edf runs the EDF baseline the stage-2 figures compare against; the
// result is freshly allocated and stays valid while the cells read it.
func (c stage2) edf(trace []*core.Request) (*sim.Result, error) {
	return sim.Run(c.simConfig(sched.NewEDF()), trace)
}

// scheduler builds the SFC1+SFC2 cascade with balance factor f. Stage-2
// output feeds the priority queue directly (§5.2 skips SFC3), so the
// dispatcher is fully preemptive. The deadline horizon bounds the
// absolute deadlines of the whole run.
func (c stage2) scheduler(curve string, f float64) (*core.Scheduler, error) {
	cv, err := sfc.New(curve, stage2Dims, stage2Levels)
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
			Curve1: cv, Levels: stage2Levels,
			UseDeadline: true, F: f, Tie: tie,
			DeadlineHorizon: 2*int64(c.Requests)*stage2Interarrival + stage2DeadlineMax,
			DeadlineSpan:    stage2DeadlineMax,
		},
		core.DispatcherConfig{Mode: core.FullyPreemptive},
		0,
	)
}

// fig8 measures the effect of the SFC2 balance factor f on (a) priority
// inversion and (b) deadline misses, both as percentages of the EDF
// scheduler's values. Small f favors priority order at the cost of
// deadlines; large f converges to EDF's miss count.
func fig8(_ io.Writer, p Params) ([]*Result, error) {
	c := newStage2(p, 24_500)
	fs := []float64{0, 0.25, 0.5, 1, 2, 4, 8}
	trace, err := c.trace()
	if err != nil {
		return nil, err
	}
	edf, err := c.edf(trace)
	if err != nil {
		return nil, err
	}
	baseInv := float64(edf.TotalInversions())
	baseMiss := float64(edf.TotalMisses())
	note := fmt.Sprintf("dims=%d levels=%d deadlines=[%d,%d]ms service=%dms; EDF: %0.f inversions, %.0f misses",
		stage2Dims, stage2Levels, stage2DeadlineMin/1000, stage2DeadlineMax/1000, c.service/1000, baseInv, baseMiss)
	a := &Result{
		ID: "fig8a", Title: "Priority inversion vs balance factor f (% of EDF)",
		XLabel: "f", YLabel: "total priority inversions, % of EDF",
		X: fs, Notes: []string{note},
	}
	b := &Result{
		ID: "fig8b", Title: "Deadline misses vs balance factor f (% of EDF)",
		XLabel: "f", YLabel: "deadline misses, % of EDF",
		X: fs, Notes: []string{note},
	}
	return []*Result{a, b}, sweep(c.Workers, stage2Curves, func(x, s int) ([]float64, error) {
		sc, err := c.scheduler(stage2Curves[s], fs[x])
		if err != nil {
			return nil, err
		}
		return runCell(c.simConfig(sc), trace, func(r *sim.Result) []float64 {
			return []float64{
				percent(float64(r.TotalInversions()), baseInv),
				percent(float64(r.TotalMisses()), baseMiss),
			}
		})
	}, a, b)
}

// fig9 measures selectivity: how deadline misses distribute over priority
// levels within each dimension, for EDF versus the Cascaded-SFC scheduler
// with different SFC1 curves at f = 1, on a disk overloaded so every
// scheduler must sacrifice. It returns one Result per dimension (the
// paper's three sub-figures); the ideal scheduler concentrates all misses
// in the lowest-priority levels.
func fig9(_ io.Writer, p Params) ([]*Result, error) {
	const f = 1.0
	c := newStage2(p, 26_000)
	trace, err := c.trace()
	if err != nil {
		return nil, err
	}
	// One run per series answers every (dimension, level) point of that
	// series, so the runs fan out here and sweep only unpacks them. The
	// results are retained, hence un-reused.
	names := append([]string{"edf"}, stage2Curves...)
	runs, err := runner.Map(c.Workers, len(names), func(s int) (*sim.Result, error) {
		if s == 0 {
			return c.edf(trace)
		}
		sc, err := c.scheduler(names[s], f)
		if err != nil {
			return nil, err
		}
		return sim.Run(c.simConfig(sc), trace)
	})
	if err != nil {
		return nil, err
	}
	levels := make([]float64, stage2Levels)
	for l := range levels {
		levels[l] = float64(l + 1)
	}
	out := make([]*Result, stage2Dims)
	for k := range out {
		out[k] = &Result{
			ID:     fmt.Sprintf("fig9-dim%d", k+1),
			Title:  fmt.Sprintf("Deadline misses per priority level, dimension %d of %d", k+1, stage2Dims),
			XLabel: "level",
			YLabel: "deadline misses (level 1 = highest priority)",
			X:      levels,
			Notes: []string{
				fmt.Sprintf("f=%g; dims=%d levels=%d deadlines=[%d,%d]ms", f,
					stage2Dims, stage2Levels, stage2DeadlineMin/1000, stage2DeadlineMax/1000),
			},
		}
	}
	return out, sweep(1, names, func(x, s int) ([]float64, error) {
		ys := make([]float64, stage2Dims)
		for k := range ys {
			ys[k] = float64(runs[s].MissesPerDimLevel[k][x])
		}
		return ys, nil
	}, out...)
}
