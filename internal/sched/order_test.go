package sched

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/dispatch-order.txt from the code")

// orderLevels is the level count the dispatch-order traffic is built
// for; its priorities run one past each end so multi-queue clamps.
const orderLevels = 4

// dispatchOrder drives s through one seeded mix of interleaved Add and
// Next calls and returns the IDs it dispatches, the final drain included.
// The clock advances between calls and the head moves to each served
// cylinder. Cylinders come from twelve values, deadlines from whole
// 100 ms steps (one in six has none) and levels from six, so every
// policy meets ties on each of its keys. The random draws do not depend
// on what s serves, so every policy sees the same arrivals.
func dispatchOrder(s Scheduler) []uint64 {
	rng := stats.NewRNG(55)
	var order []uint64
	now, head := int64(0), 0
	serve := func() bool {
		r := s.Next(now, head)
		if r != nil {
			order = append(order, r.ID)
			head = r.Cylinder
		}
		return r != nil
	}
	for id := uint64(1); id <= 400; {
		now += int64(rng.Uint64n(4_000))
		if rng.Float64() < 0.4 {
			serve()
			continue
		}
		r := &core.Request{
			ID: id, Arrival: now, Cylinder: 300 * rng.Intn(12), Size: 16 << 10 << (2 * rng.Intn(2)),
			Priorities: []int{rng.Intn(orderLevels+2) - 1, rng.Intn(orderLevels)},
		}
		if rng.Intn(6) > 0 {
			r.Deadline = (now/100_000 + 1 + int64(rng.Intn(6))) * 100_000
		}
		s.Add(r, now, head)
		id++
	}
	for serve() {
	}
	return order
}

// TestDispatchOrderGolden pins, for every row of the policy table built
// through NewPolicy, the exact order in which it serves dispatchOrder's
// traffic. -update rewrites testdata/dispatch-order.txt, only for an
// intended change of some policy's choices.
func TestDispatchOrderGolden(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintln(&got, "# Dispatch order of every sched.Policies row on order_test.go's traffic.")
	for _, p := range Policies {
		s, err := NewPolicy(p.Name, testEstimator(), orderLevels)
		if err != nil {
			t.Fatal(err)
		}
		order := dispatchOrder(s)
		fmt.Fprintf(&got, "%s: %d dispatched\n", p.Name, len(order))
		for i, id := range order {
			sep := " "
			if i%20 == 19 || i == len(order)-1 {
				sep = "\n"
			}
			fmt.Fprintf(&got, "%d%s", id, sep)
		}
	}
	path := filepath.Join("testdata", "dispatch-order.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(path); err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Errorf("dispatch order differs from %s (%v):\n%s", path, err, got.Bytes())
	}
}
