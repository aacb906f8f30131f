package core

import (
	"math/rand"
	"testing"
)

// batchRequests returns n random requests with IDs 1..n.
func batchRequests(seed int64, n int) []*Request {
	rng := rand.New(rand.NewSource(seed))
	rs := make([]*Request, n)
	for i := range rs {
		rs[i] = randomRequest(rng, uint64(i+1))
	}
	return rs
}

// requireSameOrder drains both schedulers and fails on the first
// difference in length or dispatch order.
func requireSameOrder(t *testing.T, mode PreemptMode, loop, bulk *Scheduler) {
	t.Helper()
	if bulk.Len() != loop.Len() {
		t.Fatalf("%v: Len: bulk %d, loop %d", mode, bulk.Len(), loop.Len())
	}
	for {
		a := loop.Next(6000, 77)
		b := bulk.Next(6000, 77)
		if a == nil || b == nil {
			if a != b {
				t.Fatalf("%v: one scheduler drained early: %v vs %v", mode, a, b)
			}
			return
		}
		if a.ID != b.ID {
			t.Fatalf("%v: order diverged: loop %d, batch %d", mode, a.ID, b.ID)
		}
	}
}

// TestAddBatchMatchesAddLoop checks that the bulk path dispatches in the
// exact order a one-by-one Add loop would, in every mode — including the
// conditionally preemptive one, where each arrival is checked against the
// window of the request in service.
func TestAddBatchMatchesAddLoop(t *testing.T) {
	ecfg := shardedTestConfig()
	for _, dcfg := range []DispatcherConfig{
		{Mode: FullyPreemptive},
		{Mode: NonPreemptive},
		{Mode: ConditionallyPreemptive, Window: 1 << 20, SP: true},
	} {
		loop := MustScheduler("a", ecfg, dcfg, 0)
		bulk := MustScheduler("b", ecfg, dcfg, 0)
		rs := batchRequests(21, 300)
		// A request in service first, so the conditional mode's window
		// decides every later arrival.
		loop.Add(rs[0], 5000, 77)
		bulk.Add(rs[0], 5000, 77)
		loop.Next(5000, 77)
		bulk.Next(5000, 77)
		for _, r := range rs[1:] {
			loop.Add(r, 5000, 77)
		}
		bulk.AddBatch(rs[1:], 5000, 77)
		requireSameOrder(t, dcfg.Mode, loop, bulk)
	}
}

// TestSchedulerAddBatchMatchesAddLoop checks the scheduler-level wrapper
// on an idle scheduler: identical values (the same head and time for each
// request) and identical dispatch order, and an empty batch is a no-op.
func TestSchedulerAddBatchMatchesAddLoop(t *testing.T) {
	ecfg := shardedTestConfig()
	dcfg := DispatcherConfig{Mode: FullyPreemptive}
	loop := MustScheduler("a", ecfg, dcfg, 0)
	bulk := MustScheduler("b", ecfg, dcfg, 0)
	rs := batchRequests(22, 200)
	for _, r := range rs {
		loop.Add(r, 5000, 77)
	}
	bulk.AddBatch(rs, 5000, 77)
	requireSameOrder(t, dcfg.Mode, loop, bulk)
	// Empty batch is a no-op and must not disturb the sweep timeline.
	before := bulk.progress
	bulk.AddBatch(nil, 7000, 3000)
	if bulk.progress != before {
		t.Error("empty AddBatch advanced the sweep timeline")
	}
}
