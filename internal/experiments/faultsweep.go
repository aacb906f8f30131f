package experiments

import (
	"fmt"

	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// FaultSweepConfig drives the PR-5 robustness experiment: the RAID-5
// array rides through a mid-run disk failure (with rebuild) while the
// transient-fault rate sweeps, comparing how each scheduler's drop rate
// degrades. Every run is deterministic: the same config replays the same
// failure, the same retries, and the same CSV.
type FaultSweepConfig struct {
	common
	// Rates lists the transient fault rates to sweep (x-axis).
	Rates []float64
	// MeanInterarrival is the mean logical arrival gap, µs.
	MeanInterarrival int64
	// Levels is the number of priority levels.
	Levels int
	// DeadlineMin/Max bound the relative deadlines, µs.
	DeadlineMin int64
	DeadlineMax int64
	// WriteFrac is the fraction of logical writes (read-modify-write).
	WriteFrac float64
	// Array geometry.
	Disks     int
	BlockSize int64
	// Retry policy for transient faults.
	MaxRetries int
	RetryBase  int64
	// Whole-disk failure armed at every point: FailDisk dies at FailAt and
	// rebuild streams RebuildBlocks stripes through the foreground
	// schedulers, RebuildInterval apart.
	FailDisk        int
	FailAt          int64
	Rebuild         bool
	RebuildBlocks   int
	RebuildInterval int64
}

// DefaultFaultSweepConfig returns a sweep that crosses the array's
// tolerance band: at rate 0 the failure alone is nearly free, at 2% the
// retry traffic visibly eats into deadline slack.
func DefaultFaultSweepConfig() FaultSweepConfig {
	return FaultSweepConfig{
		common:           common{Seed: 1, Requests: 4000},
		Rates:            []float64{0, 0.005, 0.01, 0.02},
		MeanInterarrival: 9_000,
		Levels:           8,
		DeadlineMin:      400_000,
		DeadlineMax:      800_000,
		WriteFrac:        0.2,
		Disks:            5,
		BlockSize:        64 << 10,
		MaxRetries:       3,
		RetryBase:        5_000,
		FailDisk:         2,
		FailAt:           4_000_000,
		Rebuild:          true,
		RebuildBlocks:    128,
		RebuildInterval:  4_000,
	}
}

// faultSweepAlgorithms builds the compared schedulers: the cascaded SFC
// scheduler over the (deadline, priority) plane plus three baselines.
func faultSweepAlgorithms(levels int, horizon int64) []policy {
	return []policy{
		{"cascaded", func() (sched.Scheduler, error) { return planeCascade(levels, horizon, 0.02) }},
		scanEDFPolicy,
		{"edf", func() (sched.Scheduler, error) { return sched.NewEDF(), nil }},
		{"cscan", func() (sched.Scheduler, error) { return sched.NewCSCAN(), nil }},
	}
}

// FaultSweep sweeps the transient-fault rate over the degraded RAID-5
// array. It returns two results on the same x-axis: the logical drop rate
// (percent of requests lost to deadlines or exhausted retries) and the
// fault-attributed share of the physical drops (retry exhaustion and
// deadline expiry during backoff, excluding pure load drops).
func FaultSweep(cfg FaultSweepConfig) (*Result, *Result, error) {
	if len(cfg.Rates) == 0 {
		cfg.Rates = DefaultFaultSweepConfig().Rates
	}
	model, err := xp32150()
	if err != nil {
		return nil, nil, err
	}
	array, err := disk.NewRAID5(cfg.Disks, cfg.BlockSize, model)
	if err != nil {
		return nil, nil, err
	}
	algs := faultSweepAlgorithms(cfg.Levels, cfg.DeadlineMax)

	failNote := "no disk failure armed"
	if cfg.FailAt > 0 {
		failNote = fmt.Sprintf("disk %d fails at t=%dms; rebuild=%v (%d blocks, %dms apart)",
			cfg.FailDisk, cfg.FailAt/1000, cfg.Rebuild, cfg.RebuildBlocks, cfg.RebuildInterval/1000)
	}
	notes := []string{
		fmt.Sprintf("array: %d disks RAID-5, block %d KB; %d requests, interarrival %dms, deadlines [%d,%d]ms, writes %.0f%%",
			array.Disks, cfg.BlockSize>>10, cfg.Requests, cfg.MeanInterarrival/1000,
			cfg.DeadlineMin/1000, cfg.DeadlineMax/1000, cfg.WriteFrac*100),
		fmt.Sprintf("retry policy: %d attempts, backoff %dms doubling; %s", cfg.MaxRetries, cfg.RetryBase/1000, failNote),
	}
	drops := &Result{
		ID:     "faultsweep",
		Title:  "Logical drop rate vs transient fault rate on the degraded RAID-5 array",
		XLabel: "fault rate",
		YLabel: "requests dropped (%)",
		X:      append([]float64(nil), cfg.Rates...),
		Notes:  notes,
	}
	faultShare := &Result{
		ID:     "faultsweep",
		Title:  "Fault-attributed physical drops vs transient fault rate",
		XLabel: "fault rate",
		YLabel: "physical ops dropped by retry exhaustion or backoff expiry",
		X:      append([]float64(nil), cfg.Rates...),
	}

	trace, err := workload.Open{
		Seed:             cfg.Seed,
		Count:            cfg.Requests,
		MeanInterarrival: cfg.MeanInterarrival,
		Dims:             1,
		Levels:           cfg.Levels,
		DeadlineMin:      cfg.DeadlineMin,
		DeadlineMax:      cfg.DeadlineMax,
		Cylinders:        int(array.MaxBlocks()),
		SizeMin:          cfg.BlockSize,
		SizeMax:          cfg.BlockSize,
		WriteFrac:        cfg.WriteFrac,
	}.Generate()
	if err != nil {
		return nil, nil, err
	}

	plans := make([]*fault.Plan, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		plan := &fault.Plan{
			Seed:          cfg.Seed,
			TransientRate: rate,
			MaxRetries:    cfg.MaxRetries,
			RetryBase:     cfg.RetryBase,
		}
		if cfg.FailAt > 0 {
			plan.FailDisk = cfg.FailDisk
			plan.FailAt = cfg.FailAt
			plan.Rebuild = cfg.Rebuild
			plan.RebuildBlocks = cfg.RebuildBlocks
			plan.RebuildInterval = cfg.RebuildInterval
		}
		plans[i] = plan
	}

	// Cells share only read-only inputs (trace, array, plans); each
	// RunArray builds its own schedulers and collectors.
	return drops, faultShare, sweep(cfg.Workers, policyNames(algs), func(x, s int) ([]float64, error) {
		ar, err := sim.RunArray(sim.ArrayConfig{
			Array:        array,
			NewScheduler: func(int) (sched.Scheduler, error) { return algs[s].build() },
			Options: sim.Options{
				DropLate: true, Dims: 1, Levels: cfg.Levels,
				Seed: cfg.Seed, Fault: plans[x],
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
