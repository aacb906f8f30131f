package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func shutdownConfig() EncapsulatorConfig {
	return EncapsulatorConfig{
		Levels:      8,
		UseDeadline: true, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: 3832,
	}
}

// TestShardedCloseDrainNoLossNoDoubleDispatch is the shutdown contract of
// the serving layer: producers hammer TryAdd while a consumer drains via
// Next; Close lands mid-sweep; afterwards the remainder is drained (Next
// until nil). Every request a producer saw accepted must come out exactly
// once, and every rejected request must not come out at all.
func TestShardedCloseDrainNoLossNoDoubleDispatch(t *testing.T) {
	s := mustLocked(shutdownConfig())
	m := &Metrics{}
	s.SetMetrics(m)

	const producers = 4
	const perProducer = 2000

	var accepted sync.Map // id -> true for requests TryAdd accepted
	var rejected atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			for i := 0; i < perProducer; i++ {
				id := uint64(p*perProducer + i + 1)
				r := &Request{
					ID:         id,
					Priorities: []int{int(id) % 8},
					Deadline:   int64(id%700_000) + 1,
					Cylinder:   int(id*37) % 3832,
				}
				if s.TryAdd(r, int64(i), int(id)%3832) {
					accepted.Store(id, true)
				} else {
					rejected.Add(1)
				}
			}
		}(p)
	}

	seen := make(map[uint64]int)
	var consumed int
	var consumerWG sync.WaitGroup
	stopConsumer := make(chan struct{})
	consumerWG.Add(1)
	go func() {
		defer consumerWG.Done()
		now := int64(0)
		for {
			select {
			case <-stopConsumer:
				return
			default:
			}
			if r := s.Next(now, int(now)%3832); r != nil {
				seen[r.ID]++
				consumed++
				now++
			} else {
				runtime.Gosched()
			}
		}
	}()

	close(start)
	// Let the mill turn, then slam the ingress shut mid-sweep.
	for m.Adds.Load() < producers*perProducer/4 {
		runtime.Gosched()
	}
	s.Close()
	wg.Wait()
	close(stopConsumer)
	consumerWG.Wait()

	drained := 0
	for r := s.Next(0, 0); r != nil; r = s.Next(0, 0) {
		seen[r.ID]++
		drained++
	}
	if s.Len() != 0 {
		t.Fatalf("scheduler still holds %d requests after the drain", s.Len())
	}
	if s.TryAdd(&Request{ID: 1 << 40, Priorities: []int{0}}, 0, 0) {
		t.Fatal("scheduler not closed after Close")
	}

	var nAccepted int
	accepted.Range(func(k, _ any) bool {
		nAccepted++
		if seen[k.(uint64)] != 1 {
			t.Fatalf("accepted request %d dispatched %d times, want exactly 1", k, seen[k.(uint64)])
		}
		return true
	})
	if len(seen) != nAccepted {
		t.Fatalf("%d distinct requests came out, but only %d were accepted", len(seen), nAccepted)
	}
	if consumed+drained != nAccepted {
		t.Fatalf("accounting broke: consumed %d + drained %d != accepted %d", consumed, drained, nAccepted)
	}
	if got := int(rejected.Load()); nAccepted+got != producers*perProducer {
		t.Fatalf("accepted %d + rejected %d != produced %d", nAccepted, got, producers*perProducer)
	}
	if rejected.Load() == 0 {
		t.Log("note: Close landed after every producer finished; rejection path untested this run")
	}
}

// TestShardedTryAddAfterCloseRejects pins the quiescent-state semantics.
func TestShardedTryAddAfterCloseRejects(t *testing.T) {
	s := mustLocked(shutdownConfig())
	r := &Request{ID: 1, Priorities: []int{0}, Cylinder: 10}
	if !s.TryAdd(r, 0, 0) {
		t.Fatal("open scheduler rejected a request")
	}
	s.Close()
	if s.TryAdd(&Request{ID: 2, Priorities: []int{0}}, 0, 0) {
		t.Fatal("closed scheduler accepted a request")
	}
	// Add on a closed scheduler is a visible no-op, not a panic.
	s.Add(&Request{ID: 3, Priorities: []int{0}}, 0, 0)
	if s.Len() != 1 {
		t.Fatalf("closed scheduler queued an Add: len %d, want 1", s.Len())
	}
	// The queued request is still dispatchable after Close.
	if got := s.Next(0, 0); got == nil || got.ID != 1 {
		t.Fatalf("Next after Close = %v, want request 1", got)
	}
	// An empty closed scheduler stays empty and closed.
	if r := s.Next(0, 0); r != nil || s.Len() != 0 {
		t.Fatalf("empty closed scheduler handed out %v, len %d", r, s.Len())
	}
}

// TestShardedDrainOrder checks a drain — Close, then Next until nil — hands
// back the remainder in the exact (value, sequence) order an open scheduler
// would have dispatched it.
func TestShardedDrainOrder(t *testing.T) {
	s := mustLocked(shutdownConfig())
	ref := mustLocked(shutdownConfig())
	for i := 1; i <= 64; i++ {
		r := &Request{
			ID:         uint64(i),
			Priorities: []int{i % 8},
			Deadline:   int64(i*9000) + 1,
			Cylinder:   (i * 311) % 3832,
		}
		s.Add(r, 0, 0)
		ref.Add(r, 0, 0)
	}
	var got []uint64
	s.Close()
	for r := s.Next(0, 0); r != nil; r = s.Next(0, 0) {
		got = append(got, r.ID)
	}
	for i := 0; ; i++ {
		r := ref.Next(0, 0)
		if r == nil {
			if i != len(got) {
				t.Fatalf("Drain returned %d requests, Next %d", len(got), i)
			}
			break
		}
		if i >= len(got) || got[i] != r.ID {
			t.Fatalf("drain order diverges at %d: got %v, want %d", i, got[i:min(i+3, len(got))], r.ID)
		}
	}
}
