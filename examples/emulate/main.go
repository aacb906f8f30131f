// Emulate: the paper's §4.2 generalization claim. With the right insertion
// criterion and a zero window, the Cascaded-SFC dispatcher reproduces
// classic schedulers exactly. This example takes three of core's emulation
// presets — EDF, multi-queue priority, and C-SCAN — runs each against its
// reference implementation on the same trace, and verifies the dispatch
// orders match request for request.
package main

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

func main() {
	model := disk.MustModel(disk.QuantumXP32150Params())
	trace := workload.Open{
		Seed:             5,
		Count:            300,
		MeanInterarrival: 1_000,
		Dims:             1,
		Levels:           8,
		DeadlineMin:      500_000,
		DeadlineMax:      900_000,
		Cylinders:        model.Cylinders,
		Size:             64 << 10,
	}.MustGenerate()

	// EDF: the insertion criterion is the absolute deadline.
	check("EDF", trace, core.EmulateEDF(), sched.NewEDF())

	// Multi-queue: the criterion is the priority level. The emulation is
	// FIFO inside a level where the reference scans, so the comparison is
	// of level sequences rather than exact IDs.
	checkLevels("multi-queue", trace, core.EmulateMultiQueue(8), sched.NewMultiQueue(8))

	// C-SCAN: the criterion is the cyclic distance ahead of the head on
	// the sweep timeline — the SFC3 stage at R = 1, one pure scan.
	check("C-SCAN", trace, core.EmulateCSCAN(model.Cylinders), sched.NewCSCAN())
}

// drainAll enqueues the whole trace, then drains, returning dispatch IDs.
func drainAll(trace []*core.Request, s sched.Scheduler) []uint64 {
	head := 0
	for _, r := range trace {
		s.Add(r, r.Arrival, head)
	}
	now := trace[len(trace)-1].Arrival
	var ids []uint64
	for r := s.Next(now, head); r != nil; r = s.Next(now, head) {
		ids = append(ids, r.ID)
		head = r.Cylinder
	}
	return ids
}

func check(name string, trace []*core.Request, emu, ref sched.Scheduler) {
	a := drainAll(trace, emu)
	b := drainAll(trace, ref)
	mismatches := 0
	for i := range a {
		if a[i] != b[i] {
			mismatches++
		}
	}
	verdict := "exact match"
	if mismatches > 0 {
		verdict = fmt.Sprintf("%d/%d positions differ (tie-break order)", mismatches, len(a))
	}
	fmt.Printf("%-12s emulation vs reference: %s\n", name, verdict)
}

// checkLevels compares the sequence of priority levels dispatched, which
// is the multi-queue invariant (inside a level the two implementations
// break ties differently by design).
func checkLevels(name string, trace []*core.Request, emu, ref sched.Scheduler) {
	byID := map[uint64]int{}
	for _, r := range trace {
		byID[r.ID] = r.Priorities[0]
	}
	a := drainAll(trace, emu)
	b := drainAll(trace, ref)
	mismatches := 0
	for i := range a {
		if byID[a[i]] != byID[b[i]] {
			mismatches++
		}
	}
	verdict := "level sequence matches exactly"
	if mismatches > 0 {
		verdict = fmt.Sprintf("%d/%d level positions differ", mismatches, len(a))
	}
	fmt.Printf("%-12s emulation vs reference: %s\n", name, verdict)
}
