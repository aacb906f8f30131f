package experiments

import (
	"fmt"
	"io"

	"sfcsched/internal/disk"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
)

// fig11RAID is the §6 experiment on the full PanaViss storage stack: the
// 4-data + 1-parity RAID-5 array of Table 1 with true 1.5 Mbps MPEG-1
// streams. Logical blocks stripe across the array, recording streams pay
// the read-modify-write penalty, and each disk runs its own scheduler
// instance. Unlike fig11 (single disk, scaled bit rate), no workload
// substitution is needed: 68-91 users at 1.5 Mbps span the array's
// capacity band naturally.
func fig11RAID(_ io.Writer, p Params) ([]*Result, error) {
	model, err := xp32150()
	if err != nil {
		return nil, err
	}
	array, err := disk.NewRAID5(5, fig11BlockSize, model)
	if err != nil {
		return nil, err
	}
	users := fig11Users(p)
	weights := metrics.LinearWeights(fig11Levels, fig11CostRatio)
	res := &Result{
		ID:     "fig11raid",
		Title:  "Aggregate weighted losses vs users on the RAID-5 array (true 1.5 Mbps)",
		XLabel: "users",
		YLabel: fmt.Sprintf("weighted loss cost (top:bottom weight %g:1)", fig11CostRatio),
		X:      fig11Axis(users),
		Notes: []string{
			fmt.Sprintf("array: %d disks RAID-5, block %d KB; bitrate=1500kbps levels=%d deadlines=[%d,%d]ms writes=%.0f%% duration=%ds",
				array.Disks, fig11BlockSize>>10, fig11Levels,
				fig11DeadlineMin/1000, fig11DeadlineMax/1000, fig11WriteFrac*100, fig11Duration/1_000_000),
			"logical writes pay the read-modify-write penalty (4 physical ops on 2 disks)",
		},
	}
	// The paper's MPEG-1 rate, unscaled, over the logical block space.
	traces, err := fig11Traces(p.Seed, users, 1_500_000, int(array.MaxBlocks()/4))
	if err != nil {
		return nil, err
	}
	return []*Result{res}, sweep(p.Workers, policyNames(fig11Policies), func(x, s int) ([]float64, error) {
		ar, err := sim.RunArray(sim.ArrayConfig{
			Array:        array,
			NewScheduler: func(int) (sched.Scheduler, error) { return fig11Policies[s].build() },
			Options:      sim.Options{DropLate: true, Dims: 1, Levels: fig11Levels, Seed: p.Seed},
		}, traces[x])
		if err != nil {
			return nil, err
		}
		cost, err := ar.Logical.WeightedLossCost(0, weights)
		return []float64{cost}, err
	}, res)
}
