// Cpusched: the paper's §4.1 flexibility claim in action. When there is no
// disk-utilization dimension — CPU or thread scheduling — SFC3 is simply
// skipped: stage 1 collapses the priority dimensions, stage 2 folds in the
// deadline, and the output feeds the priority queue directly.
//
// The example schedules a mixed batch of real-time jobs (interactive,
// batch, maintenance tiers x three user classes) on a simulated CPU and
// compares the Cascaded-SFC order against plain EDF on two counts: jobs
// finished by their deadline, and priority inversions suffered by the
// interactive tier.
package main

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

func main() {
	fmt.Printf("%-14s %10s %10s %14s %18s\n",
		"scheduler", "finished", "missed", "inversions", "tier-0 inversions")
	for _, res := range compare() {
		fmt.Printf("%-14s %10d %10d %14d %18d\n",
			res.Scheduler, res.Served, res.TotalMisses(), res.TotalInversions(), res.InversionsPerDim[0])
	}
	fmt.Println("\nthe cascaded scheduler suffers less than half of EDF's priority")
	fmt.Println("inversions and fewer than FCFS, just by dropping the SFC3 stage from")
	fmt.Println("the configuration; the price is deadlines: it misses more than either")
}

// compare runs the cascade, EDF and FCFS, in that order, over one batch.
func compare() []*sim.Result {
	const (
		dims   = 2 // job tier, user class
		levels = 4
		jobs   = 3000
	)

	// CPU jobs: a "cylinder" would be meaningless, so the workload carries
	// none and the simulator charges a fixed 9 ms burst per job against a
	// 10 ms mean arrival rate.
	trace := workload.Open{
		Seed:             21,
		Count:            jobs,
		MeanInterarrival: 10_000,
		Dims:             dims,
		Levels:           levels,
		DeadlineMin:      100_000,
		DeadlineMax:      400_000,
	}.MustGenerate()

	cascaded := core.MustScheduler("cascaded-cpu",
		core.EncapsulatorConfig{
			Curve1: sfc.MustNew("peano", dims, levels),
			Levels: levels,
			// Stage 2 folds in deadlines; stage 3 is skipped entirely.
			UseDeadline:     true,
			F:               1,
			DeadlineHorizon: 2 * 10_000 * jobs,
			DeadlineSpan:    400_000,
		},
		core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)

	var results []*sim.Result
	for _, s := range []sched.Scheduler{cascaded, sched.NewEDF(), sched.NewFCFS()} {
		res, err := sim.Run(sim.Config{
			Scheduler:    s,
			FixedService: 9_000,
			Options:      sim.Options{DropLate: true, Dims: dims, Levels: levels},
		}, trace)
		if err != nil {
			panic(err)
		}
		results = append(results, res)
	}
	return results
}
