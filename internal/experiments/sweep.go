package experiments

import (
	"sync"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
)

// sweep is the package's one grid: it evaluates cell over the results'
// shared x-axis × names, x-major, on up to workers goroutines (0 =
// GOMAXPROCS), and adds to results[m] one series per name, in names
// order, holding value m of every cell. Cells share only read-only
// inputs, so the output is identical for every worker count (see
// internal/runner); the error returned is the lowest-indexed cell's.
func sweep(workers int, names []string, cell func(x, s int) ([]float64, error), results ...*Result) error {
	nx, ns := len(results[0].X), len(names)
	cells, err := runner.Map(workers, nx*ns, func(i int) ([]float64, error) { return cell(i/ns, i%ns) })
	if err != nil {
		return err
	}
	for s, name := range names {
		for m, r := range results {
			ys := make([]float64, nx)
			for x := range ys {
				ys[x] = cells[x*ns+s][m]
			}
			if err := r.AddSeries(name, ys); err != nil {
				return err
			}
		}
	}
	return nil
}

// flat appends a constant series: a baseline drawn across the x-axis.
func (r *Result) flat(name string, v float64) {
	ys := make([]float64, len(r.X))
	for i := range ys {
		ys[i] = v
	}
	r.Series = append(r.Series, Series{Name: name, Y: ys})
}

// policy is one compared scheduler: a series name and a constructor, so
// every cell builds its own instance.
type policy struct {
	name  string
	build func() (sched.Scheduler, error)
}

func policyNames(ps []policy) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return names
}

// baseline is the named row of sched's policy table. The rows the
// experiments compare against read neither the estimator nor the level
// count.
func baseline(name string) policy {
	return policy{name, func() (sched.Scheduler, error) { return sched.NewPolicy(name, nil, 0) }}
}

// planeCascade builds the cascaded scheduler of the faultsweep and
// divergence experiments: hilbert over the (deadline, priority) plane,
// conditionally preemptive with SP, blocking window w of the value space.
func planeCascade(levels int, horizon int64, w float64) (sched.Scheduler, error) {
	cv, err := sfc.New("hilbert", 2, uint32(levels))
	if err != nil {
		return nil, err
	}
	return core.NewScheduler("cascaded",
		core.EncapsulatorConfig{
			Levels:      levels,
			UseDeadline: true, Curve2: cv,
			DeadlineHorizon: horizon, DeadlineSlack: true,
		},
		core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, w)
}

// xp32150 is the Table 1 disk every experiment simulates.
func xp32150() (*disk.Model, error) {
	return disk.NewModel(disk.QuantumXP32150Params())
}

// loadAxis renders mean interarrival gaps (µs) as offered load in req/s.
func loadAxis(interarrivals []int64) []float64 {
	x := make([]float64, len(interarrivals))
	for i, ia := range interarrivals {
		x[i] = float64(int64(1_000_000 / ia))
	}
	return x
}

// reusePool hands sweep cells recycled per-run simulator state (event
// heap, collector, station — see sim.Reuse). Pooling instead of one Reuse per
// cell keeps the working set at one Reuse per live worker while letting
// any cell run on any worker.
var reusePool = sync.Pool{New: func() any { return new(sim.Reuse) }}

// runReused runs cfg over trace through a pooled sim.Reuse and hands the
// result to extract. The result is only valid inside extract: once
// runReused returns, the Reuse is back in the pool and another cell may
// reset the collector the result points at — extract must copy out every
// scalar the caller needs.
func runReused(cfg sim.Config, trace []*core.Request, extract func(*sim.Result) error) error {
	ru := reusePool.Get().(*sim.Reuse)
	cfg.Reuse = ru
	res, err := sim.Run(cfg, trace)
	if err == nil {
		err = extract(res)
	}
	reusePool.Put(ru)
	return err
}

// runCell is runReused for a sweep cell: it returns the values extract
// reads off the result.
func runCell(cfg sim.Config, trace []*core.Request, extract func(*sim.Result) []float64) ([]float64, error) {
	var ys []float64
	err := runReused(cfg, trace, func(r *sim.Result) error {
		ys = extract(r)
		return nil
	})
	return ys, err
}
