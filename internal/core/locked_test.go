package core

import (
	"math/rand"
	"sync"
	"testing"

	"sfcsched/internal/sfc"
)

// shardedTestConfig is a full three-stage cascade small enough for tests.
func shardedTestConfig() EncapsulatorConfig {
	return EncapsulatorConfig{
		Curve1: sfc.MustNew("hilbert", 3, 8), Levels: 8,
		UseDeadline: true, F: 1, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: 3832,
	}
}

// mustLocked is the fully-preemptive cascade behind the locked ingress —
// what the pre-Locked concurrent queue type scheduled with, so the
// TestSharded* contracts below keep pinning the same dispatch order.
func mustLocked(ecfg EncapsulatorConfig) *Locked {
	return Lock(MustScheduler("", ecfg, DispatcherConfig{Mode: FullyPreemptive}, 0))
}

func randomRequest(rng *rand.Rand, id uint64) *Request {
	return &Request{
		ID:         id,
		Priorities: []int{rng.Intn(8), rng.Intn(8), rng.Intn(8)},
		Deadline:   int64(rng.Intn(700_000)),
		Cylinder:   rng.Intn(3832),
	}
}

// TestShardedMatchesSchedulerSerialized feeds the identical (op, now, head)
// sequence to a locked scheduler and to a bare Scheduler of the same
// dispatcher policy: the dispatch order must match bit for bit — the lock
// adds nothing to, and takes nothing from, the policy underneath.
func TestShardedMatchesSchedulerSerialized(t *testing.T) {
	for _, dcfg := range []DispatcherConfig{
		{Mode: FullyPreemptive},
		{Mode: NonPreemptive},
		{Mode: ConditionallyPreemptive, Window: 1 << 16, SP: true, ER: true},
	} {
		lockedMatchesBare(t, dcfg)
	}
}

func lockedMatchesBare(t *testing.T, dcfg DispatcherConfig) {
	ecfg := shardedTestConfig()
	ss := Lock(MustScheduler("s", ecfg, dcfg, 0))
	ref := MustScheduler("r", ecfg, dcfg, 0)

	rng := rand.New(rand.NewSource(7))
	now, head := int64(0), 0
	id := uint64(0)
	for round := 0; round < 200; round++ {
		for i := rng.Intn(6); i > 0; i-- {
			r := randomRequest(rng, id)
			id++
			ss.Add(r, now, head)
			ref.Add(r, now, head)
			now += int64(rng.Intn(1000))
		}
		for i := rng.Intn(4); i > 0; i-- {
			a := ss.Next(now, head)
			b := ref.Next(now, head)
			switch {
			case a == nil && b == nil:
			case a == nil || b == nil:
				t.Fatalf("round %d: one scheduler empty (sharded=%v ref=%v)", round, a, b)
			case a.ID != b.ID:
				t.Fatalf("round %d: dispatch order diverged: sharded %d, ref %d", round, a.ID, b.ID)
			default:
				head = a.Cylinder
			}
			now += int64(rng.Intn(2000))
		}
	}
	// Drain the rest.
	for {
		a, b := ss.Next(now, head), ref.Next(now, head)
		if a == nil && b == nil {
			break
		}
		if a == nil || b == nil || a.ID != b.ID {
			t.Fatalf("drain diverged: sharded %v, ref %v", a, b)
		}
		head = a.Cylinder
	}
}

// TestShardedConcurrentConservation runs several producers against one
// consumer and checks every request is dispatched exactly once. Run under
// -race this also exercises the locking protocol.
func TestShardedConcurrentConservation(t *testing.T) {
	const producers, perProducer = 4, 500
	ss := mustLocked(shardedTestConfig())
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProducer; i++ {
				id := uint64(p*perProducer + i + 1)
				ss.Add(randomRequest(rng, id), int64(i), i%3832)
			}
		}(p)
	}
	seen := make(map[uint64]bool, producers*perProducer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(seen) < producers*perProducer {
			if r := ss.Next(0, 0); r != nil {
				if seen[r.ID] {
					t.Errorf("request %d dispatched twice", r.ID)
					return
				}
				seen[r.ID] = true
			}
		}
	}()
	wg.Wait()
	<-done
	if len(seen) != producers*perProducer {
		t.Fatalf("dispatched %d of %d", len(seen), producers*perProducer)
	}
	if ss.Len() != 0 {
		t.Fatalf("queue not empty after drain: %d", ss.Len())
	}
}

// TestShardedEachAndLen checks the snapshot accessors.
func TestShardedEachAndLen(t *testing.T) {
	ss := mustLocked(shardedTestConfig())
	rng := rand.New(rand.NewSource(9))
	want := map[uint64]bool{}
	for i := uint64(1); i <= 40; i++ {
		ss.Add(randomRequest(rng, i), 0, 0)
		want[i] = true
	}
	if ss.Len() != 40 {
		t.Fatalf("Len = %d", ss.Len())
	}
	ss.Each(func(r *Request) { delete(want, r.ID) })
	if len(want) != 0 {
		t.Fatalf("Each missed %d requests", len(want))
	}
}
