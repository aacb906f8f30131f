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

// comparison is one preset and its reference implementation, each drained
// over the same trace.
type comparison struct {
	name     string
	emu, ref []*core.Request
	// levels compares the dispatched priority levels instead of the
	// requests: inside a level the two implementations break ties
	// differently by design.
	levels bool
}

// compare drains three presets and their references over one trace.
func compare() []comparison {
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
	return []comparison{
		// EDF: the insertion criterion is the absolute deadline.
		{name: "EDF", emu: drainAll(trace, core.EmulateEDF()), ref: drainAll(trace, sched.NewEDF())},
		// Multi-queue: the criterion is the priority level. The emulation
		// is FIFO inside a level where the reference scans.
		{name: "multi-queue", emu: drainAll(trace, core.EmulateMultiQueue(8)), ref: drainAll(trace, sched.NewMultiQueue(8)), levels: true},
		// C-SCAN: the criterion is the cyclic distance ahead of the head on
		// the sweep timeline — the SFC3 stage at R = 1, one pure scan.
		{name: "C-SCAN", emu: drainAll(trace, core.EmulateCSCAN(model.Cylinders)), ref: drainAll(trace, sched.NewCSCAN())},
	}
}

func main() {
	for _, c := range compare() {
		fmt.Printf("%-12s emulation vs reference: %s\n", c.name, c.verdict())
	}
}

// drainAll enqueues the whole trace, then drains, returning the dispatch
// order.
func drainAll(trace []*core.Request, s sched.Scheduler) []*core.Request {
	head := 0
	for _, r := range trace {
		s.Add(r, r.Arrival, head)
	}
	now := trace[len(trace)-1].Arrival
	var order []*core.Request
	for r := s.Next(now, head); r != nil; r = s.Next(now, head) {
		order = append(order, r)
		head = r.Cylinder
	}
	return order
}

// verdict counts the positions where the two orders dispatch a different
// request (a different level when c.levels is set).
func (c comparison) verdict() string {
	key := func(r *core.Request) int {
		if c.levels {
			return r.Priorities[0]
		}
		return int(r.ID)
	}
	mismatches := max(len(c.emu), len(c.ref)) - min(len(c.emu), len(c.ref))
	for i := range min(len(c.emu), len(c.ref)) {
		if key(c.emu[i]) != key(c.ref[i]) {
			mismatches++
		}
	}
	switch {
	case mismatches > 0 && c.levels:
		return fmt.Sprintf("%d/%d level positions differ", mismatches, len(c.ref))
	case mismatches > 0:
		return fmt.Sprintf("%d/%d positions differ (tie-break order)", mismatches, len(c.ref))
	case c.levels:
		return "level sequence matches exactly"
	}
	return "exact match"
}
