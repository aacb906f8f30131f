package experiments

import (
	"fmt"
	"io"

	"sfcsched/internal/core"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// The §6 NewsByte5 non-linear-editing parameters: a sweep over the number
// of concurrent editing streams, comparing FCFS and six 2-D
// space-filling-curve schedulers over the (priority, deadline) plane by
// the weighted aggregate-loss cost function.
const (
	// fig11Duration is the simulated time per point, µs.
	fig11Duration = 40_000_000
	// fig11BitRate is the per-stream media rate of the single-disk fig11,
	// bits/s. The paper quotes 1.5 Mbps MPEG-1 on the PanaViss RAID; a
	// single simulated XP32150 saturates near 60 req/s, so the rate is
	// scaled to place 68-91 users across the same below-to-above capacity
	// band (documented substitution, see DESIGN.md). fig11raid runs the
	// paper's rate.
	fig11BitRate   = 420_000.0
	fig11BlockSize = 64 << 10
	// fig11Levels is the number of user priority levels (paper: 8).
	fig11Levels = 8
	// The relative deadlines span 750-1500 ms, as in the paper; µs.
	fig11DeadlineMin = 750_000
	fig11DeadlineMax = 1_500_000
	// fig11WriteFrac is the fraction of recording streams.
	fig11WriteFrac = 0.2
	// fig11CostRatio is the highest:lowest loss-weight ratio (paper: 11).
	fig11CostRatio = 11.0
)

// fig11Users returns the swept stream counts: p.Users, or the paper's
// 68-91.
func fig11Users(p Params) []int {
	if len(p.Users) > 0 {
		return p.Users
	}
	return []int{68, 72, 76, 80, 84, 88, 91}
}

// streamPolicy builds one §6 2-D curve scheduler. The 2-D grid is
// (time-to-deadline, priority) at enqueue: a stationary square, so curves
// like Hilbert and Peano serve the urgent-and-important corner first,
// which is the §6 trade-off behavior. The horizon is the largest relative
// deadline.
func streamPolicy(name, curve string, priorityOnY bool) policy {
	return policy{name, func() (sched.Scheduler, error) {
		cv, err := sfc.New(curve, 2, fig11Levels)
		if err != nil {
			return nil, err
		}
		return core.NewScheduler(curve,
			core.EncapsulatorConfig{
				Levels:      fig11Levels,
				UseDeadline: true, Curve2: cv, Curve2PriorityOnY: priorityOnY,
				DeadlineHorizon: fig11DeadlineMax, DeadlineSlack: true,
			},
			core.DispatcherConfig{Mode: core.NonPreemptive}, 0)
	}}
}

// fig11Policies are the §6 schedulers. Sweep-X puts priority on X so the
// sweep orders by deadline (EDF-like); Sweep-Y puts priority on Y so the
// sweep orders by priority (multi-queue-like); Hilbert and Peano balance
// both.
var fig11Policies = []policy{
	baseline("fcfs"),
	streamPolicy("sweep-x", "sweep", false),
	streamPolicy("sweep-y", "sweep", true),
	streamPolicy("hilbert", "hilbert", false),
	streamPolicy("peano", "peano", false),
	streamPolicy("diagonal", "diagonal", false),
	// moore closes the Hilbert loop, removing the open curve's
	// urgent-cell endpoint pathology (EXPERIMENTS.md).
	streamPolicy("moore", "moore", false),
}

// fig11Axis renders the swept stream counts as the x-axis.
func fig11Axis(users []int) []float64 {
	xs := make([]float64, len(users))
	for i, u := range users {
		xs[i] = float64(u)
	}
	return xs
}

// fig11Traces generates one NewsByte5 workload per swept user count, at
// bitRate over an address space of cylinders, up front; each is then
// shared read-only by every cell of its sweep point.
func fig11Traces(seed uint64, users []int, bitRate float64, cylinders int) ([][]*core.Request, error) {
	traces := make([][]*core.Request, len(users))
	for i, u := range users {
		var err error
		traces[i], err = workload.Streams{
			Seed:        seed,
			Users:       u,
			Duration:    fig11Duration,
			BitRate:     bitRate,
			BlockSize:   fig11BlockSize,
			Levels:      fig11Levels,
			DeadlineMin: fig11DeadlineMin,
			DeadlineMax: fig11DeadlineMax,
			Cylinders:   cylinders,
			WriteFrac:   fig11WriteFrac,
			Burst:       3,
		}.Generate()
		if err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// fig11 sweeps the number of concurrent editing streams on one disk and
// reports the weighted aggregate loss of each scheduler.
func fig11(_ io.Writer, p Params) ([]*Result, error) {
	m, err := xp32150()
	if err != nil {
		return nil, err
	}
	users := fig11Users(p)
	weights := metrics.LinearWeights(fig11Levels, fig11CostRatio)
	res := &Result{
		ID:     "fig11",
		Title:  "Aggregate weighted losses vs number of users (NewsByte5 workload)",
		XLabel: "users",
		YLabel: fmt.Sprintf("weighted loss cost (top:bottom weight %g:1)", fig11CostRatio),
		X:      fig11Axis(users),
		Notes: []string{
			fmt.Sprintf("bitrate=%.0fkbps block=%dKB levels=%d deadlines=[%d,%d]ms writes=%.0f%% duration=%ds",
				fig11BitRate/1000, fig11BlockSize>>10, fig11Levels,
				fig11DeadlineMin/1000, fig11DeadlineMax/1000, fig11WriteFrac*100, fig11Duration/1_000_000),
			"bitrate scaled from the paper's 1.5 Mbps so one simulated disk spans the same load band as the PanaViss RAID (see DESIGN.md)",
		},
	}
	traces, err := fig11Traces(p.Seed, users, fig11BitRate, m.Cylinders)
	if err != nil {
		return nil, err
	}
	return []*Result{res}, sweep(p.Workers, policyNames(fig11Policies), func(x, s int) ([]float64, error) {
		sc, err := fig11Policies[s].build()
		if err != nil {
			return nil, err
		}
		var cost float64
		err = runReused(sim.Config{
			Disk: m, Scheduler: sc,
			Options: sim.Options{DropLate: true, Dims: 1, Levels: fig11Levels},
		}, traces[x], func(r *sim.Result) error {
			cost, err = r.WeightedLossCost(0, weights)
			return err
		})
		return []float64{cost}, err
	}, res)
}
