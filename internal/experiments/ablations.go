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

// ablations runs the design-choice experiments DESIGN.md §6 calls out and
// prints one table per ablation. The tables print in a fixed order;
// p.Workers bounds the parallel simulation cells within each ablation (0 =
// GOMAXPROCS) and does not change any number printed. The ablations run at
// their own fixed sizes; p.Requests does not apply.
func ablations(w io.Writer, p Params) ([]*Result, error) {
	seed, workers := p.Seed, p.Workers
	if err := ablationDeadlineMode(w, seed, workers); err != nil {
		return nil, err
	}
	if err := ablationSP(w, seed, workers); err != nil {
		return nil, err
	}
	if err := ablationER(w); err != nil {
		return nil, err
	}
	if err := ablationWindow(w, seed, workers); err != nil {
		return nil, err
	}
	return nil, ablationCascadeVsSingle(w, seed, workers)
}

// ablationCascadeVsSingle compares the three-stage cascade against the
// predecessor single-curve design (the paper's reference [2]): one
// Hilbert curve over (priorities, deadline, cylinder) as equal axes.
func ablationCascadeVsSingle(w io.Writer, seed uint64, workers int) error {
	m, err := xp32150()
	if err != nil {
		return err
	}
	trace, err := workload.Open{
		Seed: seed, Count: 5000, MeanInterarrival: 13_000,
		Dims: 2, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
		Cylinders: m.Cylinders, SizeMin: 4 << 10, SizeMax: 256 << 10,
	}.Generate()
	if err != nil {
		return err
	}
	horizon := 2*int64(5000)*13_000 + 700_000
	cv, err := sfc.New("hilbert", 2, 8)
	if err != nil {
		return err
	}
	cascaded, err := core.NewScheduler("cascaded", core.EncapsulatorConfig{
		Curve1: cv, Levels: 8,
		UseDeadline: true, F: 1, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: m.Cylinders,
	}, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	if err != nil {
		return err
	}
	single, err := core.NewSingleStageScheduler("single-hilbert", "hilbert", 2, 8,
		horizon, m.Cylinders, core.DispatcherConfig{Mode: core.FullyPreemptive})
	if err != nil {
		return err
	}
	scheds := []sched.Scheduler{cascaded, single}
	cells, err := runner.Map(workers, len(scheds), func(i int) ([]string, error) {
		var row []string
		err := runReused(sim.Config{
			Disk: m, Scheduler: scheds[i],
			Options: sim.Options{DropLate: true, Dims: 2, Levels: 8, Seed: seed},
		}, trace, func(res *sim.Result) error {
			row = []string{
				scheds[i].Name(),
				fmt.Sprintf("%d", res.TotalMisses()),
				fmt.Sprintf("%d", res.TotalInversions()),
				fmt.Sprintf("%.1f", float64(res.SeekTime)/1e6),
			}
			return nil
		})
		return row, err
	})
	if err != nil {
		return err
	}
	rows := append([][]string{{"design", "deadline misses", "inversions", "seek (s)"}}, cells...)
	fmt.Fprintln(w, "== ablation: three-stage cascade vs single (D+2)-dim curve [ref 2] ==")
	writeAligned(w, rows)
	fmt.Fprintln(w, "   note: a single curve cannot give the deadline axis EDF semantics or")
	fmt.Fprintln(w, "   note: the cylinder axis scan semantics; the cascade assigns each")
	fmt.Fprintln(w, "   note: parameter family a curve that fits it")
	fmt.Fprintln(w)
	return nil
}

// ablationDeadlineMode compares the absolute deadline axis against the
// slack-at-enqueue ablation.
func ablationDeadlineMode(w io.Writer, seed uint64, workers int) error {
	trace, err := workload.Open{
		Seed: seed, Count: 4000, MeanInterarrival: 25_000,
		Dims: 1, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
	}.Generate()
	if err != nil {
		return err
	}
	misses, err := runner.Map(workers, 2, func(i int) (uint64, error) {
		s, err := core.NewScheduler("x", core.EncapsulatorConfig{
			Levels: 8, UseDeadline: true, F: math.Inf(1), Tie: core.TiePriority,
			DeadlineHorizon: 210_000_000, DeadlineSpan: 700_000, DeadlineSlack: i == 1,
		}, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
		if err != nil {
			return 0, err
		}
		var m uint64
		err = runReused(sim.Config{Scheduler: s, FixedService: 24_000, Options: sim.Options{DropLate: true, Seed: seed}},
			trace, func(res *sim.Result) error {
				m = res.TotalMisses()
				return nil
			})
		return m, err
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== ablation: deadline axis (absolute vs slack-at-enqueue) ==")
	writeAligned(w, [][]string{
		{"axis", "deadline misses"},
		{"absolute (default)", fmt.Sprintf("%d", misses[0])},
		{"slack at enqueue", fmt.Sprintf("%d", misses[1])},
	})
	fmt.Fprintln(w, "   note: slack values computed at different arrival times are mutually")
	fmt.Fprintln(w, "   note: skewed by the arrival gap, which starves old requests under load")
	fmt.Fprintln(w)
	return nil
}

// ablationSP compares the Serve-and-Promote policy on and off.
func ablationSP(w io.Writer, seed uint64, workers int) error {
	trace, err := workload.Open{
		Seed: seed, Count: 4000, MeanInterarrival: 25_000, Dims: 4, Levels: 16,
	}.Generate()
	if err != nil {
		return err
	}
	inv, err := runner.Map(workers, 2, func(i int) (uint64, error) {
		cv, err := sfc.New("peano", 4, 16)
		if err != nil {
			return 0, err
		}
		s, err := core.NewScheduler("x", core.EncapsulatorConfig{Curve1: cv, Levels: 16},
			core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: i == 0}, 0.05)
		if err != nil {
			return 0, err
		}
		var v uint64
		err = runReused(sim.Config{
			Scheduler: s, FixedService: 24_000,
			Options: sim.Options{Dims: 4, Levels: 16, Seed: seed},
		}, trace, func(res *sim.Result) error {
			v = res.TotalInversions()
			return nil
		})
		return v, err
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== ablation: Serve-and-Promote (SP) at window 5% ==")
	writeAligned(w, [][]string{
		{"policy", "priority inversions"},
		{"SP on", fmt.Sprintf("%d", inv[0])},
		{"SP off", fmt.Sprintf("%d", inv[1])},
	})
	fmt.Fprintln(w)
	return nil
}

// ablationER measures the Expand-and-Reset starvation guard against an
// adversarial stream that always undercuts a fixed window.
func ablationER(w io.Writer) error {
	run := func(er bool) int {
		d, err := core.NewDispatcher(core.DispatcherConfig{
			Mode: core.ConditionallyPreemptive, Window: 5, ER: er, Expansion: 2,
		})
		if err != nil {
			return -1
		}
		d.Add(&core.Request{ID: 1}, 100_000)
		d.Next()
		d.Add(&core.Request{ID: 999}, 200_000)
		v := uint64(100_000)
		for i := 0; i < 512; i++ {
			v -= 6
			d.Add(&core.Request{ID: uint64(i + 2)}, v)
			if r := d.Next(); r != nil && r.ID == 999 {
				return i + 1
			}
		}
		return 512
	}
	fmt.Fprintln(w, "== ablation: Expand-and-Reset (ER) vs an adversarial stream ==")
	writeAligned(w, [][]string{
		{"policy", "dispatches until the blocked request is served"},
		{"ER on (e=2)", fmt.Sprintf("%d", run(true))},
		{"ER off", fmt.Sprintf(">= %d (stream length)", run(false))},
	})
	fmt.Fprintln(w)
	return nil
}

// ablationWindow sweeps the blocking window and reports preemption
// pressure.
func ablationWindow(w io.Writer, seed uint64, workers int) error {
	trace, err := workload.Open{
		Seed: seed, Count: 3000, MeanInterarrival: 25_000, Dims: 4, Levels: 16,
	}.Generate()
	if err != nil {
		return err
	}
	fracs := []float64{0, 0.02, 0.05, 0.2, 0.5}
	cells, err := runner.Map(workers, len(fracs), func(i int) ([]string, error) {
		cv, err := sfc.New("peano", 4, 16)
		if err != nil {
			return nil, err
		}
		s, err := core.NewScheduler("x", core.EncapsulatorConfig{Curve1: cv, Levels: 16},
			core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, fracs[i])
		if err != nil {
			return nil, err
		}
		// Cells run in parallel: each counts its policy events privately.
		m := new(core.Metrics)
		s.SetMetrics(m)
		var row []string
		err = runReused(sim.Config{
			Scheduler: s, FixedService: 24_000,
			Options: sim.Options{Dims: 4, Levels: 16, Seed: seed},
		}, trace, func(res *sim.Result) error {
			row = []string{
				fmt.Sprintf("%.0f%%", fracs[i]*100),
				fmt.Sprintf("%d", m.Preemptions.Load()+m.Promotions.Load()),
				fmt.Sprintf("%d", res.TotalInversions()),
			}
			return nil
		})
		return row, err
	})
	if err != nil {
		return err
	}
	rows := append([][]string{{"window", "preemptions+promotions", "inversions"}}, cells...)
	fmt.Fprintln(w, "== ablation: blocking window size (peano SFC1, 4 dims) ==")
	writeAligned(w, rows)
	fmt.Fprintln(w)
	return nil
}
