package sched

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sfc"
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
		writeOrder(&got, p.Name, dispatchOrder(s, n, pNext))
	}
	checkGolden(t, name, got.Bytes())
}

// writeOrder appends one golden row: its label, the dispatch count and the
// IDs, twenty to a line.
func writeOrder(w *bytes.Buffer, label string, order []uint64) {
	fmt.Fprintf(w, "%s: %d dispatched\n", label, len(order))
	for i, id := range order {
		sep := " "
		if i%20 == 19 || i == len(order)-1 {
			sep = "\n"
		}
		fmt.Fprintf(w, "%d%s", id, sep)
	}
}

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: %d lines, want %d", path, len(g), len(w))
	}
}

// orderCylinders is the disk the cascade rows' seek stage spans: the
// Table 1 drive, past the last cylinder dispatchOrder draws.
const orderCylinders = 3832

// orderCascade is the cascade golden's default: hilbert SFC1, f 1 over a
// 700 ms slack horizon, R 3, conditionally preemptive at w 5 % with SP.
var orderCascade = core.Cascade{Name: "hilbert", Curve: "hilbert", Dims: 2, Levels: orderLevels,
	F: 1, Horizon: 700_000, Slack: true, R: 3, Mode: core.ConditionallyPreemptive, Window: 0.05, SP: true}

// cascadeRows are the configurations the cascade golden pins: the default
// under each registry curve, then the default with one setting changed.
// TestDispatchOrderGoldenCascade requires every row to dispatch in an
// order no earlier row does.
func cascadeRows() []core.Cascade {
	var rows []core.Cascade
	vary := func(name string, change func(*core.Cascade)) {
		row := orderCascade
		row.Name = name
		change(&row)
		rows = append(rows, row)
	}
	for _, curve := range sfc.Names() {
		// Over two dimensions cscan is sweep; they part only from three.
		if curve != "cscan" {
			vary(curve, func(c *core.Cascade) { c.Curve = curve })
		}
	}
	vary("f=0", func(c *core.Cascade) { c.F = 0 })
	vary("f=+Inf", func(c *core.Cascade) { c.F = math.Inf(1) })
	vary("R=0", func(c *core.Cascade) { c.R = 0 })
	vary("R=1", func(c *core.Cascade) { c.R = 1 })
	vary("non-preemptive", func(c *core.Cascade) { c.Mode = core.NonPreemptive })
	vary("fully preemptive", func(c *core.Cascade) { c.Mode = core.FullyPreemptive })
	// With the seek stage on, SP off serves this traffic exactly as
	// non-preemptive does; without it the two part.
	vary("SP off, R=0", func(c *core.Cascade) { c.SP, c.R = false, 0 })
	vary("ER on", func(c *core.Cascade) { c.ER = true })
	vary("absolute deadlines", func(c *core.Cascade) { c.Horizon, c.Span, c.Slack = 3_000_000, 700_000, false })
	for _, plane := range []string{"sweep", "hilbert"} {
		for _, axis := range []string{"X", "Y"} {
			vary(plane+" plane, priority on "+axis, func(c *core.Cascade) {
				c.Curve, c.Plane, c.PriorityOnY = "", plane, axis == "Y"
			})
		}
	}
	return rows
}

// TestDispatchOrderGoldenCascade pins the Cascaded-SFC scheduler the way
// TestDispatchOrderGolden pins the baselines: each of cascadeRows on
// dispatchOrder's 400-request traffic, then the default on the deep
// 4 000-request traffic. -update rewrites
// testdata/dispatch-order-cascade.txt.
func TestDispatchOrderGoldenCascade(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintln(&got, "# Dispatch order of Cascaded-SFC configurations on order_test.go's traffic.")
	seen := map[string]string{}
	for _, row := range cascadeRows() {
		s, err := row.Build(orderCylinders)
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		order := dispatchOrder(s, 400, 0.4)
		key := fmt.Sprint(order)
		if prev, dup := seen[key]; dup {
			t.Errorf("%s dispatches in the same order as %s: the row pins nothing new", row.Name, prev)
		}
		seen[key] = row.Name
		writeOrder(&got, row.Name, order)
	}
	s, err := orderCascade.Build(orderCylinders)
	if err != nil {
		t.Fatal(err)
	}
	writeOrder(&got, "hilbert, deep", dispatchOrder(s, 4000, 0.25))
	checkGolden(t, "dispatch-order-cascade.txt", got.Bytes())
}
