package core

import (
	"testing"
)

// The hot path of every dispatch cycle — value computation, enqueue,
// dequeue — must not touch the garbage collector in steady state. These
// gates pin that property so a regression shows up as a test failure, not
// as a benchmark drift someone has to notice.

// skipUnderRace skips allocation gates under the race detector, whose
// instrumentation forces sync.Pool to allocate on every Get.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
}

func TestValueAtNoAllocs(t *testing.T) {
	skipUnderRace(t)
	e := MustEncapsulator(shardedTestConfig())
	r := &Request{Priorities: []int{3, 1, 6}, Deadline: 600_000, Cylinder: 1200}
	e.ValueAt(r, 0, 0, 0) // warm the scratch pool
	allocs := testing.AllocsPerRun(1000, func() {
		e.ValueAt(r, 1, 7, 3)
	})
	if allocs != 0 {
		t.Errorf("ValueAt allocates %v per op", allocs)
	}
}

// The single-stage baseline owns its point and curve scratch the way the
// cascade owns its pool; Hilbert is the curve that needs the scratch.
func TestSingleStageValueNoAllocs(t *testing.T) {
	skipUnderRace(t)
	ss, err := NewSingleStage("hilbert", 2, 8, 1_000_000, 3832)
	if err != nil {
		t.Fatal(err)
	}
	r := &Request{Priorities: []int{3, 6}, Deadline: 600_000, Cylinder: 1200}
	allocs := testing.AllocsPerRun(1000, func() {
		ss.Value(r, 1, 7)
	})
	if allocs != 0 {
		t.Errorf("SingleStage.Value allocates %v per op", allocs)
	}
}

func TestDispatcherSteadyStateNoAllocs(t *testing.T) {
	skipUnderRace(t)
	d := MustDispatcher(DispatcherConfig{Mode: ConditionallyPreemptive, Window: 1000, SP: true})
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = &Request{ID: uint64(i)}
	}
	i := 0
	for ; i < 1024; i++ {
		d.Add(reqs[i%64], uint64(i*2654435761)%(1<<20))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		d.Add(reqs[i%64], uint64(i*2654435761)%(1<<20))
		d.Next()
		i++
	})
	if allocs != 0 {
		t.Errorf("Add+Next allocates %v per op in steady state", allocs)
	}
}

func TestSchedulerAddNoAllocs(t *testing.T) {
	skipUnderRace(t)
	s := MustScheduler("x", shardedTestConfig(), DispatcherConfig{Mode: FullyPreemptive}, 0)
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = &Request{ID: uint64(i), Priorities: []int{i % 8, (i * 3) % 8, 0}, Deadline: 500_000, Cylinder: (i * 37) % 3832}
	}
	// Grow the heap once, then drain: capacity stays as a freelist.
	for i := 0; i < 1024; i++ {
		s.Add(reqs[i%64], int64(i), 0)
	}
	for s.Next(0, 0) != nil {
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		s.Add(reqs[i%64], int64(i), i%3832)
		s.Next(int64(i), i%3832)
		i++
	})
	if allocs != 0 {
		t.Errorf("Scheduler Add+Next allocates %v per op in steady state", allocs)
	}
}

func TestShardedAddNextNoAllocs(t *testing.T) {
	skipUnderRace(t)
	ss := mustLocked(shardedTestConfig())
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = &Request{ID: uint64(i), Priorities: []int{i % 8, 0, 0}, Deadline: 500_000, Cylinder: (i * 37) % 3832}
	}
	for i := 0; i < 1024; i++ {
		ss.Add(reqs[i%64], int64(i), 0)
	}
	for ss.Next(0, 0) != nil {
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		// Vary the head so the sweep timeline advances inside the measured
		// window.
		ss.Add(reqs[i%64], int64(i), i%3832)
		ss.Next(int64(i), i%3832)
		i++
	})
	if allocs != 0 {
		t.Errorf("sharded Add+Next allocates %v per op in steady state", allocs)
	}
}

// TestInstrumentedPathsNoAllocs pins that the observability layer itself is
// allocation-free on the hot path: a per-instance Metrics sink (counters,
// hi-water gauge, dispatch-wait histogram all active) must leave the
// Add/Next gates at zero, and the counters must actually have recorded the
// traffic — instrumentation that silently no-ops would pass the gate
// vacuously. The nil input is the scheduler with no sink installed.
func TestInstrumentedPathsNoAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, m := range []*Metrics{{}, nil} {
		s := MustScheduler("x", shardedTestConfig(), DispatcherConfig{Mode: ConditionallyPreemptive, Window: 1 << 16, SP: true, ER: true}, 0)
		s.SetMetrics(m)
		reqs := make([]*Request, 64)
		for i := range reqs {
			reqs[i] = &Request{ID: uint64(i), Priorities: []int{i % 8, (i * 3) % 8, 0}, Deadline: 500_000, Cylinder: (i * 37) % 3832}
		}
		const warm = 1024
		for i := 0; i < warm; i++ {
			s.Add(reqs[i%64], int64(i), 0)
		}
		for s.Next(0, 0) != nil {
		}
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			s.Add(reqs[i%64], int64(i), i%3832)
			s.Next(int64(i), i%3832)
			i++
		})
		if allocs != 0 {
			t.Errorf("Add+Next with sink %p allocates %v per op in steady state", m, allocs)
		}
		if m != nil && (m.Adds.Load() <= warm || m.Dispatches.Load() == 0 || m.DispatchWait.Count() == 0) {
			t.Errorf("instrumentation recorded nothing: adds=%d dispatches=%d waits=%d",
				m.Adds.Load(), m.Dispatches.Load(), m.DispatchWait.Count())
		}
	}
}

func TestAddBatchSteadyStateNoAllocs(t *testing.T) {
	skipUnderRace(t)
	s := MustScheduler("x", shardedTestConfig(), DispatcherConfig{Mode: FullyPreemptive}, 0)
	batch := make([]*Request, 128)
	for i := range batch {
		batch[i] = &Request{ID: uint64(i), Priorities: []int{i % 8, 0, 0}, Deadline: 500_000, Cylinder: (i * 37) % 3832}
	}
	// One warm-up cycle sizes vbuf and the heap slice.
	s.AddBatch(batch, 0, 0)
	for s.Next(0, 0) != nil {
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.AddBatch(batch, 1, 7)
		for s.Next(1, 7) != nil {
		}
	})
	if allocs != 0 {
		t.Errorf("AddBatch cycle allocates %v per batch in steady state", allocs)
	}
}

// A cascade built over a grid the process has built before takes its
// SFC1 table from sfc.Accelerate's shared set. The benchmark's cascade
// config, rebuilt, allocates its curve, encapsulator and queue, but not the
// 512-cell Hilbert table with its builder's odometer and scratch: 7
// allocations, where a table build adds 3.
func TestRebuiltCascadeSharesItsTable(t *testing.T) {
	skipUnderRace(t)
	rebuildCascade()
	if allocs := testing.AllocsPerRun(100, rebuildCascade); allocs > 7 {
		t.Errorf("rebuilding the benchmark's cascade allocates %v times, want <= 7", allocs)
	}
}

// BenchmarkRebuildCascade is the fixed cost of a sweep cell's scheduler:
// the benchmark's cascade over a grid built before.
func BenchmarkRebuildCascade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rebuildCascade()
	}
}

// rebuildCascade builds the benchmark's cascade: Hilbert 3 × 8, f = 1,
// R = 3, conditionally preemptive at a 5 % window with SP and ER.
func rebuildCascade() {
	MustScheduler("cascaded", shardedTestConfig(),
		DispatcherConfig{Mode: ConditionallyPreemptive, SP: true, ER: true, Expansion: 2}, 0.05)
}
