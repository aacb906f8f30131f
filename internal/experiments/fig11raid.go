package experiments

import (
	"fmt"

	"sfcsched/internal/disk"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
)

// Fig11RAID is the §6 experiment on the full PanaViss storage stack: the
// 4-data + 1-parity RAID-5 array of Table 1 with true 1.5 Mbps MPEG-1
// streams. Logical blocks stripe across the array, recording streams pay
// the read-modify-write penalty, and each disk runs its own scheduler
// instance. Unlike Fig11 (single disk, scaled bit rate), no workload
// substitution is needed: 68-91 users at 1.5 Mbps span the array's
// capacity band naturally.
func Fig11RAID(cfg Fig11Config) (*Result, error) {
	if len(cfg.Users) == 0 {
		cfg.Users = DefaultFig11Config().Users
	}
	model, err := xp32150()
	if err != nil {
		return nil, err
	}
	array, err := disk.NewRAID5(5, cfg.BlockSize, model)
	if err != nil {
		return nil, err
	}
	algs := fig11Algorithms(cfg)
	weights := metrics.LinearWeights(cfg.Levels, cfg.CostRatio)
	res := &Result{
		ID:     "fig11raid",
		Title:  "Aggregate weighted losses vs users on the RAID-5 array (true 1.5 Mbps)",
		XLabel: "users",
		YLabel: fmt.Sprintf("weighted loss cost (top:bottom weight %g:1)", cfg.CostRatio),
		X:      cfg.usersAxis(),
		Notes: []string{
			fmt.Sprintf("array: %d disks RAID-5, block %d KB; bitrate=1500kbps levels=%d deadlines=[%d,%d]ms writes=%.0f%% duration=%ds",
				array.Disks, cfg.BlockSize>>10, cfg.Levels,
				cfg.DeadlineMin/1000, cfg.DeadlineMax/1000, cfg.WriteFrac*100, cfg.Duration/1_000_000),
			"logical writes pay the read-modify-write penalty (4 physical ops on 2 disks)",
		},
	}
	// The paper's MPEG-1 rate, unscaled, over the logical block space.
	traces, err := cfg.traces(1_500_000, int(array.MaxBlocks()/4))
	if err != nil {
		return nil, err
	}
	return res, sweep(cfg.Workers, policyNames(algs), func(x, s int) ([]float64, error) {
		ar, err := sim.RunArray(sim.ArrayConfig{
			Array:        array,
			NewScheduler: func(int) (sched.Scheduler, error) { return algs[s].build() },
			Options:      sim.Options{DropLate: true, Dims: 1, Levels: cfg.Levels, Seed: cfg.Seed},
		}, traces[x])
		if err != nil {
			return nil, err
		}
		cost, err := ar.Logical.WeightedLossCost(0, weights)
		return []float64{cost}, err
	}, res)
}
