package main

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
)

// Workload-wide constants. All sim workloads use the Table 1 disk and the
// §5.3 request shape (3 priority dimensions × 8 levels, 500–700 ms
// relative deadlines), so a scheduler arm means the same thing in every
// workload that uses it.
const (
	prioDims    = 3
	prioLevels  = 8
	deadlineMin = 500_000 // µs
	deadlineMax = 700_000 // µs
)

// tableOneDisk returns the Table 1 Quantum XP32150 model.
func tableOneDisk() *disk.Model { return disk.MustModel(disk.QuantumXP32150Params()) }

// cascadeConfig is the three-stage encapsulator configuration of
// internal/experiments' SFC3Config.scheduler (Hilbert SFC1, f = 1, R = 3,
// slack-mode deadlines over the relative-deadline maximum), widened to
// dims priority dimensions.
func cascadeConfig(dims, cylinders int) (core.EncapsulatorConfig, error) {
	cv, err := sfc.New("hilbert", dims, prioLevels)
	if err != nil {
		return core.EncapsulatorConfig{}, err
	}
	return core.EncapsulatorConfig{
		Curve1: cv, Levels: prioLevels,
		UseDeadline: true, F: 1,
		DeadlineHorizon: deadlineMax, DeadlineSpan: deadlineMax, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: cylinders,
	}, nil
}

// newCascade builds one Cascaded-SFC scheduler arm. The conditionally
// preemptive arm is the paper's dispatcher contribution: blocking window
// w = 5 % of the value space with Serve-and-Promote and Expand-and-Reset
// (e = 2).
func newCascade(name string, mode core.PreemptMode, dims, cylinders int) (*core.Scheduler, error) {
	ecfg, err := cascadeConfig(dims, cylinders)
	if err != nil {
		return nil, err
	}
	dcfg := core.DispatcherConfig{Mode: mode}
	window := 0.0
	if mode == core.ConditionallyPreemptive {
		dcfg.SP, dcfg.ER, dcfg.Expansion = true, true, 2
		window = 0.05
	}
	s, err := core.NewScheduler(name, ecfg, dcfg, window)
	if err != nil {
		return nil, err
	}
	// A private sink: the process-wide core.DefaultMetrics would otherwise
	// be shared by every arm and by the sharded scheduler of serve-live.
	s.SetMetrics(&core.Metrics{})
	return s, nil
}

// simArm names one scheduler of the sim-single workload and builds a fresh
// instance of it; "cascaded" is the cond-d3 arm of sched-churn.
type simArm struct {
	name string
	mk   func(cylinders int) (sched.Scheduler, error)
}

var simArms = []simArm{
	{"cascaded", func(c int) (sched.Scheduler, error) {
		return newCascade("cascaded", core.ConditionallyPreemptive, prioDims, c)
	}},
	{"cscan", func(int) (sched.Scheduler, error) { return sched.NewCSCAN(), nil }},
	{"scan-edf", func(int) (sched.Scheduler, error) { return sched.NewSCANEDF(50_000), nil }},
	{"edf", func(int) (sched.Scheduler, error) { return sched.NewEDF(), nil }},
}

// churnArm names one Cascaded-SFC variant of the sched-churn workload.
type churnArm struct {
	name string
	mode core.PreemptMode
	dims int
}

var churnArms = []churnArm{
	{"full-d3", core.FullyPreemptive, prioDims},
	{"cond-d3", core.ConditionallyPreemptive, prioDims},
	{"nonpre-d3", core.NonPreemptive, prioDims},
	{"full-d12", core.FullyPreemptive, 12},
}

func mustArm(s sched.Scheduler, err error) sched.Scheduler {
	if err != nil {
		panic(fmt.Sprintf("bench: building a scheduler arm from constants: %v", err))
	}
	return s
}
