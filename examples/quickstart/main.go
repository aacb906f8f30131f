// Quickstart: build a Cascaded-SFC disk scheduler, feed it a handful of
// multi-QoS requests, and watch the dispatch order respect priorities,
// deadlines and seek position all at once.
package main

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/sfc"
)

func main() {
	// Requests carry two priority dimensions (say, user tier and request
	// value), a deadline, and a target cylinder.
	const (
		levels    = 8
		cylinders = 3832
	)

	// Stage 1: a Hilbert curve collapses the two priority dimensions
	// fairly. Stage 2: balance factor f = 1 weighs priority and deadline
	// equally. Stage 3: R = 3 partitions trade seek optimization against
	// priority fidelity (the paper's sweet spot).
	scheduler := core.MustScheduler("quickstart",
		core.EncapsulatorConfig{
			Curve1: sfc.MustNew("hilbert", 2, levels),
			Levels: levels,

			UseDeadline:     true,
			F:               1,
			DeadlineHorizon: 1_000_000, // 1 s, µs units
			DeadlineSpan:    1_000_000,
			DeadlineSlack:   true,

			UseCylinder: true,
			R:           3,
			Cylinders:   cylinders,
		},
		core.DispatcherConfig{
			Mode: core.ConditionallyPreemptive,
			SP:   true, // promote waiting requests that clear the window
			ER:   true, // expand-and-reset guards against starvation
		},
		0.05, // blocking window: 5% of the characterization-value space
	)
	// A scheduler counts its policy events only into a sink its owner
	// installs; install before the first Add.
	events := new(core.Metrics)
	scheduler.SetMetrics(events)

	requests := []*core.Request{
		{ID: 1, Priorities: []int{5, 5}, Deadline: 900_000, Cylinder: 3000, Size: 64 << 10},
		{ID: 2, Priorities: []int{0, 1}, Deadline: 700_000, Cylinder: 2900, Size: 64 << 10},
		{ID: 3, Priorities: []int{7, 7}, Deadline: 950_000, Cylinder: 120, Size: 64 << 10},
		{ID: 4, Priorities: []int{2, 3}, Deadline: 150_000, Cylinder: 1800, Size: 64 << 10},
		{ID: 5, Priorities: []int{0, 0}, Deadline: 500_000, Cylinder: 100, Size: 64 << 10},
	}

	now, head := int64(0), 0
	for _, r := range requests {
		scheduler.Add(r, now, head)
	}

	fmt.Println("dispatch order (lower characterization value first):")
	for r := scheduler.Next(now, head); r != nil; r = scheduler.Next(now, head) {
		fmt.Printf("  request %d  priorities=%v  deadline=%dms  cylinder=%d\n",
			r.ID, r.Priorities, r.Deadline/1000, r.Cylinder)
		head = r.Cylinder
	}

	fmt.Printf("\npolicy events: %d preemptions, %d promotions, %d batch swaps\n",
		events.Preemptions.Load(), events.Promotions.Load(), events.Swaps.Load())
}
