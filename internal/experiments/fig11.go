package experiments

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// Fig11Config drives the §6 NewsByte5 non-linear-editing experiment: a
// sweep over the number of concurrent editing streams, comparing FCFS and
// four 2-D space-filling-curve schedulers over the (priority, deadline)
// plane by the weighted aggregate-loss cost function.
type Fig11Config struct {
	Seed uint64
	// Users lists the stream counts to sweep (paper: 68-91).
	Users []int
	// Duration is the simulated time per point, µs.
	Duration int64
	// BitRate is the per-stream media rate, bits/s. The paper quotes
	// 1.5 Mbps MPEG-1 on the PanaViss RAID; a single simulated XP32150
	// saturates near 60 req/s, so the default scales the rate to place
	// 68-91 users across the same below-to-above capacity band (documented
	// substitution, see DESIGN.md).
	BitRate float64
	// BlockSize is the file block size, bytes.
	BlockSize int64
	// Levels is the number of user priority levels (paper: 8).
	Levels int
	// DeadlineMin/Max bound the relative deadlines, µs (paper: 750-1500 ms).
	DeadlineMin int64
	DeadlineMax int64
	// WriteFrac is the fraction of recording streams.
	WriteFrac float64
	// CostRatio is the highest:lowest loss-weight ratio (paper: 11).
	CostRatio float64
	// Workers bounds the parallel sweep cells (0 = GOMAXPROCS). The
	// results are identical for every worker count; see internal/runner.
	Workers int
}

// DefaultFig11Config returns the §6 parameters with the documented
// bit-rate substitution.
func DefaultFig11Config() Fig11Config {
	return Fig11Config{
		Seed:        1,
		Users:       []int{68, 72, 76, 80, 84, 88, 91},
		Duration:    40_000_000,
		BitRate:     420_000,
		BlockSize:   64 << 10,
		Levels:      8,
		DeadlineMin: 750_000,
		DeadlineMax: 1_500_000,
		WriteFrac:   0.2,
		CostRatio:   11,
	}
}

// fig11Algorithms builds the §6 schedulers. The 2-D curves map the
// (priority, time-to-deadline) plane: Sweep-X puts priority on X so the
// sweep orders by deadline (EDF-like); Sweep-Y puts priority on Y so the
// sweep orders by priority (multi-queue-like); Hilbert and Peano balance
// both.
func fig11Algorithms(cfg Fig11Config) []policy {
	mk2d := func(name, curve string, priorityOnY bool) policy {
		return policy{name, func() (sched.Scheduler, error) {
			cv, err := sfc.New(curve, 2, uint32(cfg.Levels))
			if err != nil {
				return nil, err
			}
			// The 2-D grid is (time-to-deadline, priority) at enqueue: a
			// stationary square, so curves like Hilbert and Peano serve the
			// urgent-and-important corner first, which is the §6 trade-off
			// behavior. The horizon is the largest relative deadline.
			return core.NewScheduler(curve,
				core.EncapsulatorConfig{
					Levels:      cfg.Levels,
					UseDeadline: true, Curve2: cv, Curve2PriorityOnY: priorityOnY,
					DeadlineHorizon: cfg.DeadlineMax, DeadlineSlack: true,
				},
				core.DispatcherConfig{Mode: core.NonPreemptive}, 0)
		}}
	}
	return []policy{
		fcfsPolicy,
		mk2d("sweep-x", "sweep", false),
		mk2d("sweep-y", "sweep", true),
		mk2d("hilbert", "hilbert", false),
		mk2d("peano", "peano", false),
		mk2d("diagonal", "diagonal", false),
		// moore closes the Hilbert loop, removing the open curve's
		// urgent-cell endpoint pathology (EXPERIMENTS.md).
		mk2d("moore", "moore", false),
	}
}

// usersAxis renders the swept stream counts as the x-axis.
func (c Fig11Config) usersAxis() []float64 {
	xs := make([]float64, len(c.Users))
	for i, u := range c.Users {
		xs[i] = float64(u)
	}
	return xs
}

// traces generates one NewsByte5 workload per swept user count, at
// bitRate over an address space of cylinders, up front; each is then
// shared read-only by every cell of its sweep point.
func (c Fig11Config) traces(bitRate float64, cylinders int) ([][]*core.Request, error) {
	traces := make([][]*core.Request, len(c.Users))
	for i, users := range c.Users {
		var err error
		traces[i], err = workload.Streams{
			Seed:        c.Seed,
			Users:       users,
			Duration:    c.Duration,
			BitRate:     bitRate,
			BlockSize:   c.BlockSize,
			Levels:      c.Levels,
			DeadlineMin: c.DeadlineMin,
			DeadlineMax: c.DeadlineMax,
			Cylinders:   cylinders,
			WriteFrac:   c.WriteFrac,
			Burst:       3,
		}.Generate()
		if err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// Fig11 sweeps the number of concurrent editing streams and reports the
// weighted aggregate loss of each scheduler.
func Fig11(cfg Fig11Config) (*Result, error) {
	if len(cfg.Users) == 0 {
		cfg.Users = DefaultFig11Config().Users
	}
	m, err := xp32150()
	if err != nil {
		return nil, err
	}
	algs := fig11Algorithms(cfg)
	weights := metrics.LinearWeights(cfg.Levels, cfg.CostRatio)
	res := &Result{
		ID:     "fig11",
		Title:  "Aggregate weighted losses vs number of users (NewsByte5 workload)",
		XLabel: "users",
		YLabel: fmt.Sprintf("weighted loss cost (top:bottom weight %g:1)", cfg.CostRatio),
		X:      cfg.usersAxis(),
		Notes: []string{
			fmt.Sprintf("bitrate=%.0fkbps block=%dKB levels=%d deadlines=[%d,%d]ms writes=%.0f%% duration=%ds",
				cfg.BitRate/1000, cfg.BlockSize>>10, cfg.Levels,
				cfg.DeadlineMin/1000, cfg.DeadlineMax/1000, cfg.WriteFrac*100, cfg.Duration/1_000_000),
			"bitrate scaled from the paper's 1.5 Mbps so one simulated disk spans the same load band as the PanaViss RAID (see DESIGN.md)",
		},
	}
	traces, err := cfg.traces(cfg.BitRate, m.Cylinders)
	if err != nil {
		return nil, err
	}
	return res, sweep(cfg.Workers, policyNames(algs), func(x, s int) ([]float64, error) {
		sc, err := algs[s].build()
		if err != nil {
			return nil, err
		}
		var cost float64
		err = runReused(sim.Config{
			Disk: m, Scheduler: sc,
			Options: sim.Options{DropLate: true, Dims: 1, Levels: cfg.Levels, Seed: cfg.Seed},
		}, traces[x], func(r *sim.Result) error {
			cost, err = r.WeightedLossCost(0, weights)
			return err
		})
		return []float64{cost}, err
	}, res)
}
