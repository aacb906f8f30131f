package experiments

import (
	"fmt"
	"io"

	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// The robustness experiment's parameters: the RAID-5 array rides through
// a mid-run disk failure (with rebuild) while the transient-fault rate
// sweeps, comparing how each scheduler's drop rate degrades. Every run is
// deterministic: the same seed replays the same failure, the same retries,
// and the same CSV.
const (
	// faultInterarrival is the mean logical arrival gap, µs.
	faultInterarrival = 9_000
	faultLevels       = 8
	faultDeadlineMin  = 400_000
	faultDeadlineMax  = 800_000
	// faultWriteFrac is the fraction of logical writes (read-modify-write).
	faultWriteFrac = 0.2
	faultDisks     = 5
	faultBlockSize = 64 << 10
)

// faultRates is the x-axis: it crosses the array's tolerance band. At
// rate 0 the failure alone is nearly free, at 2% the retry traffic visibly
// eats into deadline slack.
var faultRates = []float64{0, 0.005, 0.01, 0.02}

// faultPlan is the plan armed at every point of the sweep: transient
// faults at rate, retried up to 3 times from a 5 ms backoff that doubles,
// and disk 2 dying at 4 s while the rebuild streams 128 stripes through
// the foreground schedulers, 4 ms apart.
func faultPlan(seed uint64, rate float64) *fault.Plan {
	return &fault.Plan{
		Seed:          seed,
		TransientRate: rate,
		MaxRetries:    3,
		RetryBase:     5_000,
		FailDisk:      2, FailAt: 4_000_000,
		Rebuild: true, RebuildBlocks: 128, RebuildInterval: 4_000,
	}
}

// faultPolicies are the compared schedulers: the cascaded SFC scheduler
// over the (deadline, priority) plane plus three baselines.
var faultPolicies = []policy{
	{"cascaded", func() (sched.Scheduler, error) { return planeCascade(faultLevels, faultDeadlineMax, 0.02) }},
	baseline("scan-edf"),
	baseline("edf"),
	baseline("cscan"),
}

// faultSweep sweeps the transient-fault rate over the degraded RAID-5
// array. It returns two results on the same x-axis: the logical drop rate
// (percent of requests lost to deadlines or exhausted retries) and the
// fault-attributed share of the physical drops (retry exhaustion and
// deadline expiry during backoff, excluding pure load drops).
func faultSweep(_ io.Writer, p Params) ([]*Result, error) {
	p = p.sized(4000)
	model, err := xp32150()
	if err != nil {
		return nil, err
	}
	array, err := disk.NewRAID5(faultDisks, faultBlockSize, model)
	if err != nil {
		return nil, err
	}
	plans := make([]*fault.Plan, len(faultRates))
	for i, rate := range faultRates {
		plans[i] = faultPlan(p.Seed, rate)
	}
	plan := plans[0]
	notes := []string{
		fmt.Sprintf("array: %d disks RAID-5, block %d KB; %d requests, interarrival %dms, deadlines [%d,%d]ms, writes %.0f%%",
			array.Disks, faultBlockSize>>10, p.Requests, faultInterarrival/1000,
			faultDeadlineMin/1000, faultDeadlineMax/1000, faultWriteFrac*100),
		fmt.Sprintf("retry policy: %d attempts, backoff %dms doubling; disk %d fails at t=%dms; rebuild=%v (%d blocks, %dms apart)",
			plan.MaxRetries, plan.RetryBase/1000, plan.FailDisk, plan.FailAt/1000,
			plan.Rebuild, plan.RebuildBlocks, plan.RebuildInterval/1000),
	}
	drops := &Result{
		ID:     "faultsweep",
		Title:  "Logical drop rate vs transient fault rate on the degraded RAID-5 array",
		XLabel: "fault rate",
		YLabel: "requests dropped (%)",
		X:      faultRates,
		Notes:  notes,
	}
	faultShare := &Result{
		ID:     "faultsweep",
		Title:  "Fault-attributed physical drops vs transient fault rate",
		XLabel: "fault rate",
		YLabel: "physical ops dropped by retry exhaustion or backoff expiry",
		X:      faultRates,
	}

	trace, err := workload.Open{
		Seed:             p.Seed,
		Count:            p.Requests,
		MeanInterarrival: faultInterarrival,
		Dims:             1,
		Levels:           faultLevels,
		DeadlineMin:      faultDeadlineMin,
		DeadlineMax:      faultDeadlineMax,
		Cylinders:        int(array.MaxBlocks()),
		SizeMin:          faultBlockSize,
		SizeMax:          faultBlockSize,
		WriteFrac:        faultWriteFrac,
	}.Generate()
	if err != nil {
		return nil, err
	}

	// Cells share only read-only inputs (trace, array, plans); each
	// RunArray builds its own schedulers and collectors.
	return []*Result{drops, faultShare}, sweep(p.Workers, policyNames(faultPolicies), func(x, s int) ([]float64, error) {
		ar, err := sim.RunArray(sim.ArrayConfig{
			Array:        array,
			NewScheduler: func(int) (sched.Scheduler, error) { return faultPolicies[s].build() },
			Options: sim.Options{
				DropLate: true, Dims: 1, Levels: faultLevels,
				Seed: p.Seed, Fault: plans[x],
			},
		}, trace)
		if err != nil {
			return nil, err
		}
		total := ar.Logical.Served + ar.Logical.Dropped
		var fdrop uint64
		for _, c := range ar.PerDisk {
			fdrop += c.FaultDropped
		}
		return []float64{percent(float64(ar.Logical.Dropped), float64(total)), float64(fdrop)}, nil
	}, drops, faultShare)
}
