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

var update = flag.Bool("update", false, "rewrite testdata/dispatch-order*.txt from the code")

// orderLevels is the level count the dispatch-order traffic is built
// for; its priorities run one past each end so multi-queue clamps.
const orderLevels = 4

// dispatchOrder drives s through one seeded mix of n Add calls
// interleaved with Next calls, each loop step a Next with probability
// pNext, and returns the IDs it dispatches, the final drain included.
// The clock advances between calls and the head moves to each served
// cylinder. Cylinders come from twelve values, deadlines from whole
// 100 ms steps (one in six has none) and levels from six, so every
// policy meets ties on each of its keys. The random draws do not depend
// on what s serves, so every policy sees the same arrivals.
func dispatchOrder(s Scheduler, n uint64, pNext float64) []uint64 {
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
	for id := uint64(1); id <= n; {
		now += int64(rng.Uint64n(4_000))
		if rng.Float64() < pNext {
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
// traffic: 400 requests, a Next on 40 % of the steps, so the queue stays
// within tens. -update rewrites testdata/dispatch-order.txt, only for an
// intended change of some policy's choices.
func TestDispatchOrderGolden(t *testing.T) {
	checkDispatchOrder(t, "dispatch-order.txt", 400, 0.4)
}

// TestDispatchOrderGoldenDeep is the same pin on a deep queue: 4 000
// requests, a Next on a quarter of the steps, so the queue climbs past
// 2 500 before the drain. A pick kernel that replaces a scan of the queue
// (a selection, an index) must reproduce the order here too, where ties
// on every key are many.
func TestDispatchOrderGoldenDeep(t *testing.T) {
	checkDispatchOrder(t, "dispatch-order-deep.txt", 4000, 0.25)
}

// checkDispatchOrder compares every policy's dispatchOrder(n, pNext) with
// testdata/<name>, or rewrites it under -update.
func checkDispatchOrder(t *testing.T, name string, n uint64, pNext float64) {
	var got bytes.Buffer
	fmt.Fprintln(&got, "# Dispatch order of every sched.Policies row on order_test.go's traffic.")
	for _, p := range Policies {
		s, err := NewPolicy(p.Name, testEstimator(), orderLevels)
		if err != nil {
			t.Fatal(err)
		}
		order := dispatchOrder(s, n, pNext)
		fmt.Fprintf(&got, "%s: %d dispatched\n", p.Name, len(order))
		for i, id := range order {
			sep := " "
			if i%20 == 19 || i == len(order)-1 {
				sep = "\n"
			}
			fmt.Fprintf(&got, "%d%s", id, sep)
		}
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: %d lines, want %d", path, len(g), len(w))
	}
}
