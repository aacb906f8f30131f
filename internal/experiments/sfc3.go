package experiments

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// SFC3Config drives the stage-3 experiment (Fig. 10): small blocks make
// seek time matter, so the full three-stage cascade runs against the real
// disk model and the partition count R trades seek optimization against
// priority/deadline fidelity (paper §5.3).
type SFC3Config struct {
	common
	Dims             int
	Levels           int
	MeanInterarrival int64
	DeadlineMin      int64
	DeadlineMax      int64
	// SizeMin/SizeMax bound the priority-correlated block sizes: §5.2's
	// assumption that high-priority requests (A/V chunks) are smaller than
	// low-priority ones (ftp transfers), carried into §5.3's small-block
	// regime where seek time matters.
	SizeMin int64
	SizeMax int64
	// Curve1 is the SFC1 choice for the cascade.
	Curve1 string
	// F is the SFC2 balance factor.
	F float64
}

// DefaultSFC3Config returns the §5.3 parameters.
func DefaultSFC3Config() SFC3Config {
	return SFC3Config{
		common:           common{Seed: 1, Requests: 6000},
		Dims:             3,
		Levels:           8,
		MeanInterarrival: 13_000,
		DeadlineMin:      500_000,
		DeadlineMax:      700_000,
		SizeMin:          4 << 10,
		SizeMax:          256 << 10,
		Curve1:           "hilbert",
		F:                1,
	}
}

func (c SFC3Config) trace(cyls int) ([]*core.Request, error) {
	return workload.Open{
		Seed:             c.Seed,
		Count:            c.Requests,
		MeanInterarrival: c.MeanInterarrival,
		Dims:             c.Dims,
		Levels:           c.Levels,
		DeadlineMin:      c.DeadlineMin,
		DeadlineMax:      c.DeadlineMax,
		Cylinders:        cyls,
		SizeMin:          c.SizeMin,
		SizeMax:          c.SizeMax,
	}.Generate()
}

func (c SFC3Config) simConfig(m *disk.Model, s sched.Scheduler) sim.Config {
	return sim.Config{
		Disk:      m,
		Scheduler: s,
		Options:   sim.Options{DropLate: true, Dims: c.Dims, Levels: c.Levels, Seed: c.Seed},
	}
}

// scheduler builds the full three-stage cascade with R partitions. The
// SFC3 seek dimension is insertion-relative (distance ahead of the head),
// so the deadline dimension uses the matching insertion-relative slack
// coordinate and the bounded window it implies.
func (c SFC3Config) scheduler(m *disk.Model, r int) (*core.Scheduler, error) {
	cv, err := sfc.New(c.Curve1, c.Dims, uint32(c.Levels))
	if err != nil {
		return nil, err
	}
	return core.NewScheduler(
		fmt.Sprintf("cascaded-R%d", r),
		core.EncapsulatorConfig{
			Curve1: cv, Levels: c.Levels,
			UseDeadline: true, F: c.F,
			DeadlineHorizon: c.DeadlineMax, DeadlineSpan: c.DeadlineMax,
			DeadlineSlack: true,
			UseCylinder:   true, R: r, Cylinders: m.Cylinders,
		},
		core.DispatcherConfig{Mode: core.FullyPreemptive},
		0,
	)
}

// Fig10 sweeps the SFC3 partition count R and reports, against the EDF and
// C-SCAN baselines: (a) priority inversion as % of C-SCAN, (b) deadline
// misses normalized to C-SCAN, and (c) total seek time in seconds.
func Fig10(cfg SFC3Config, rs []float64) (a, b, c *Result, err error) {
	if len(rs) == 0 {
		rs = []float64{1, 2, 3, 4, 6, 8, 12, 16}
	}
	m, err := xp32150()
	if err != nil {
		return nil, nil, nil, err
	}
	trace, err := cfg.trace(m.Cylinders)
	if err != nil {
		return nil, nil, nil, err
	}
	// The baselines are retained (the notes and every cell read them),
	// hence un-reused.
	cscan, err := sim.Run(cfg.simConfig(m, sched.NewCSCAN()), trace)
	if err != nil {
		return nil, nil, nil, err
	}
	edf, err := sim.Run(cfg.simConfig(m, sched.NewEDF()), trace)
	if err != nil {
		return nil, nil, nil, err
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
		cfg.Curve1, cfg.F, cfg.Dims, cfg.Levels, cfg.SizeMax>>10, cfg.MeanInterarrival/1000)
	base := fmt.Sprintf("C-SCAN: %d inversions, %d misses, %.1fs seek; EDF: %d inversions, %d misses, %.1fs seek",
		cscan.TotalInversions(), cscan.TotalMisses(), float64(cscan.SeekTime)/1e6,
		edf.TotalInversions(), edf.TotalMisses(), float64(edf.SeekTime)/1e6)

	a = &Result{
		ID: "fig10a", Title: "Priority inversion vs R (% of C-SCAN)",
		XLabel: "R", YLabel: "total priority inversions, % of C-SCAN",
		X: rs, Notes: []string{note, base},
	}
	b = &Result{
		ID: "fig10b", Title: "Deadline losses vs R (normalized to C-SCAN)",
		XLabel: "R", YLabel: "deadline misses / C-SCAN misses",
		X: rs, Notes: []string{note, base},
	}
	c = &Result{
		ID: "fig10c", Title: "Seek time vs R",
		XLabel: "R", YLabel: "total seek time, seconds",
		X: rs, Notes: []string{note, base},
	}
	err = sweep(cfg.Workers, []string{"cascaded"}, func(x, _ int) ([]float64, error) {
		s, err := cfg.scheduler(m, int(rs[x]))
		if err != nil {
			return nil, err
		}
		return runCell(cfg.simConfig(m, s), trace, views)
	}, a, b, c)
	if err != nil {
		return nil, nil, nil, err
	}
	ev := views(edf)
	a.flat("edf", ev[0])
	b.flat("edf", ev[1])
	c.flat("edf", ev[2])
	a.flat("cscan", 100)
	b.flat("cscan", 1)
	c.flat("cscan", float64(cscan.SeekTime)/1e6)
	return a, b, c, nil
}
