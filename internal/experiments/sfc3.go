package experiments

import (
	"fmt"
	"io"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// The stage-3 parameters of Fig. 10 (paper §5.3): small blocks make seek
// time matter, so the full three-stage cascade runs against the real disk
// model and the partition count R trades seek optimization against
// priority/deadline fidelity.
const (
	stage3Dims         = 3
	stage3Levels       = 8
	stage3Interarrival = 13_000
	stage3DeadlineMin  = 500_000
	stage3DeadlineMax  = 700_000
	// The priority-correlated block sizes: §5.2's assumption that
	// high-priority requests (A/V chunks) are smaller than low-priority
	// ones (ftp transfers), carried into §5.3's small-block regime where
	// seek time matters.
	stage3SizeMin = 4 << 10
	stage3SizeMax = 256 << 10
	// stage3Curve1 is the SFC1 choice and stage3F the SFC2 balance factor.
	stage3Curve1 = "hilbert"
	stage3F      = 1.0
)

// stage3 is the stage-3 workload.
type stage3 struct{ Params }

func (c stage3) trace(cyls int) ([]*core.Request, error) {
	return workload.Open{
		Seed:             c.Seed,
		Count:            c.Requests,
		MeanInterarrival: stage3Interarrival,
		Dims:             stage3Dims,
		Levels:           stage3Levels,
		DeadlineMin:      stage3DeadlineMin,
		DeadlineMax:      stage3DeadlineMax,
		Cylinders:        cyls,
		SizeMin:          stage3SizeMin,
		SizeMax:          stage3SizeMax,
	}.Generate()
}

func (c stage3) simConfig(m *disk.Model, s sched.Scheduler) sim.Config {
	return sim.Config{
		Disk:      m,
		Scheduler: s,
		Options:   sim.Options{DropLate: true, Dims: stage3Dims, Levels: stage3Levels, Seed: c.Seed},
	}
}

// scheduler builds the full three-stage cascade with R partitions. The
// SFC3 seek dimension is insertion-relative (distance ahead of the head),
// so the deadline dimension uses the matching insertion-relative slack
// coordinate and the bounded window it implies.
func (c stage3) scheduler(m *disk.Model, r int) (*core.Scheduler, error) {
	cv, err := sfc.New(stage3Curve1, stage3Dims, stage3Levels)
	if err != nil {
		return nil, err
	}
	return core.NewScheduler(
		fmt.Sprintf("cascaded-R%d", r),
		core.EncapsulatorConfig{
			Curve1: cv, Levels: stage3Levels,
			UseDeadline: true, F: stage3F,
			DeadlineHorizon: stage3DeadlineMax, DeadlineSpan: stage3DeadlineMax,
			DeadlineSlack: true,
			UseCylinder:   true, R: r, Cylinders: m.Cylinders,
		},
		core.DispatcherConfig{Mode: core.FullyPreemptive},
		0,
	)
}

// fig10 sweeps the SFC3 partition count R and reports, against the EDF and
// C-SCAN baselines: (a) priority inversion as % of C-SCAN, (b) deadline
// misses normalized to C-SCAN, and (c) total seek time in seconds.
func fig10(_ io.Writer, p Params) ([]*Result, error) {
	c := stage3{p.sized(6000)}
	rs := []float64{1, 2, 3, 4, 6, 8, 12, 16}
	m, err := xp32150()
	if err != nil {
		return nil, err
	}
	trace, err := c.trace(m.Cylinders)
	if err != nil {
		return nil, err
	}
	// The baselines are retained (the notes and every cell read them),
	// hence un-reused.
	cscan, err := sim.Run(c.simConfig(m, sched.NewCSCAN()), trace)
	if err != nil {
		return nil, err
	}
	edf, err := sim.Run(c.simConfig(m, sched.NewEDF()), trace)
	if err != nil {
		return nil, err
	}
	// views are the three sub-figures' readings of one run.
	views := func(r *sim.Result) []float64 {
		return []float64{
			percent(float64(r.TotalInversions()), float64(cscan.TotalInversions())),
			ratio(float64(r.TotalMisses()), float64(cscan.TotalMisses())),
			float64(r.SeekTime) / 1e6,
		}
	}
	note := fmt.Sprintf("curve1=%s f=%g dims=%d levels=%d blocks<=%dKB interarrival=%dms",
		stage3Curve1, stage3F, stage3Dims, stage3Levels, stage3SizeMax>>10, stage3Interarrival/1000)
	base := fmt.Sprintf("C-SCAN: %d inversions, %d misses, %.1fs seek; EDF: %d inversions, %d misses, %.1fs seek",
		cscan.TotalInversions(), cscan.TotalMisses(), float64(cscan.SeekTime)/1e6,
		edf.TotalInversions(), edf.TotalMisses(), float64(edf.SeekTime)/1e6)

	a := &Result{
		ID: "fig10a", Title: "Priority inversion vs R (% of C-SCAN)",
		XLabel: "R", YLabel: "total priority inversions, % of C-SCAN",
		X: rs, Notes: []string{note, base},
	}
	b := &Result{
		ID: "fig10b", Title: "Deadline losses vs R (normalized to C-SCAN)",
		XLabel: "R", YLabel: "deadline misses / C-SCAN misses",
		X: rs, Notes: []string{note, base},
	}
	s := &Result{
		ID: "fig10c", Title: "Seek time vs R",
		XLabel: "R", YLabel: "total seek time, seconds",
		X: rs, Notes: []string{note, base},
	}
	err = sweep(c.Workers, []string{"cascaded"}, func(x, _ int) ([]float64, error) {
		sc, err := c.scheduler(m, int(rs[x]))
		if err != nil {
			return nil, err
		}
		return runCell(c.simConfig(m, sc), trace, views)
	}, a, b, s)
	if err != nil {
		return nil, err
	}
	ev := views(edf)
	a.flat("edf", ev[0])
	b.flat("edf", ev[1])
	s.flat("edf", ev[2])
	a.flat("cscan", 100)
	b.flat("cscan", 1)
	s.flat("cscan", float64(cscan.SeekTime)/1e6)
	return []*Result{a, b, s}, nil
}
