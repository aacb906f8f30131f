package sim

import (
	"reflect"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// skipUnderRace skips allocation gates under the race detector, whose
// instrumentation forces sync.Pool to allocate on every Get.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
}

// A popped event's fn closure and station pointer must not stay reachable
// through the heap slice's spare capacity (the same leak queue.removeAt
// guards against): a retained timer closure can pin a whole station's
// object graph across runs of a recycled engine.
func TestEventHeapPopZeroesSlot(t *testing.T) {
	var h eventHeap
	st := &Station{}
	for i := 0; i < 8; i++ {
		h.push(event{time: int64(i), seq: uint64(i), station: st, fn: func(int64) {}})
	}
	for len(h) > 0 {
		h.pop()
	}
	spare := h[:cap(h)]
	for i := range spare {
		if spare[i].fn != nil || spare[i].station != nil {
			t.Fatalf("heap slot %d retains pointers after pop: %+v", i, spare[i])
		}
	}
}

func reuseBenchWorkload() workload.Open {
	return workload.Open{
		Seed: 1, Count: 2000, MeanInterarrival: 10_000,
		Dims: 3, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
		Cylinders: 3832, Size: 64 << 10,
	}
}

// The full Run path through a Reuse must stay at a small run-constant
// allocation count — not O(requests) — so sweeps can run millions of
// simulated requests per second without GC pressure. The gate is
// deliberately loose (16) against Go-version drift; the pre-arena
// figure was ~1250 allocs per run on this workload.
func TestRunReuseSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	var arena workload.Arena
	trace := reuseBenchWorkload().MustGenerateArena(&arena)
	var ru Reuse
	cfg := Config{
		Disk: xp(), Scheduler: sched.NewCSCAN(), Reuse: &ru,
		Options: Options{DropLate: true, Seed: 1, Dims: 3, Levels: 8},
	}
	MustRun(cfg, trace) // warm: grows the event heap, collector, samples
	allocs := testing.AllocsPerRun(10, func() {
		if res := MustRun(cfg, trace); res.Arrived != 2000 {
			t.Fatal("lost requests")
		}
	})
	if allocs > 16 {
		t.Errorf("reused Run allocates %v per run, want <= 16", allocs)
	}
}

// A run through a recycled Reuse must replay the exact trajectory of a
// fresh run — same collector (DeepEqual, including the waiting-time
// samples), same head travel — even after the Reuse has served a
// different configuration in between. SampleRotation exercises the
// reseeded RNG stream.
func TestReuseMatchesFreshRun(t *testing.T) {
	var arena workload.Arena
	trace := reuseBenchWorkload().MustGenerateArena(&arena)
	opts := Options{DropLate: true, Seed: 7, Dims: 3, Levels: 8, SampleRotation: true}
	fresh := MustRun(Config{Disk: xp(), Scheduler: sched.NewCSCAN(), Options: opts}, trace)

	var ru Reuse
	// Dirty the Reuse with a different shape, seed, and scheduler first.
	other := workload.Open{Seed: 2, Count: 500, MeanInterarrival: 8_000, Dims: 1, Levels: 4, Cylinders: 3832, Size: 4 << 10}.MustGenerate()
	MustRun(Config{Disk: xp(), Scheduler: sched.NewFCFS(), Reuse: &ru,
		Options: Options{Seed: 99, Dims: 1, Levels: 4, SampleRotation: true}}, other)

	// First pass swaps the collector shape in; second pass exercises the
	// reset-and-recycle path that parallel sweeps live on.
	MustRun(Config{Disk: xp(), Scheduler: sched.NewCSCAN(), Reuse: &ru, Options: opts}, trace)
	reused := MustRun(Config{Disk: xp(), Scheduler: sched.NewCSCAN(), Reuse: &ru, Options: opts}, trace)
	if !reflect.DeepEqual(fresh.Collector, reused.Collector) {
		t.Errorf("reused collector diverges from fresh run:\nfresh:  %+v\nreused: %+v",
			fresh.Collector, reused.Collector)
	}
	if fresh.HeadTravel != reused.HeadTravel || fresh.Scheduler != reused.Scheduler {
		t.Errorf("reused run head travel/name diverge: %d/%s vs %d/%s",
			fresh.HeadTravel, fresh.Scheduler, reused.HeadTravel, reused.Scheduler)
	}
}

// The observability layer must be free when disabled: a Config with every
// observability hook explicitly nil costs exactly what the baseline gate
// above allows. This is the regression gate for the nil-check-only
// contract of Engine.dispatch.
func TestRunObservabilityDisabledAllocs(t *testing.T) {
	skipUnderRace(t)
	var arena workload.Arena
	trace := reuseBenchWorkload().MustGenerateArena(&arena)
	var ru Reuse
	cfg := Config{
		Disk: xp(), Scheduler: sched.NewCSCAN(), Reuse: &ru,
		Options: Options{DropLate: true, Seed: 1, Dims: 3, Levels: 8,
			Decisions: nil, Telemetry: nil, Shadows: nil},
	}
	MustRun(cfg, trace)
	allocs := testing.AllocsPerRun(10, func() { MustRun(cfg, trace) })
	if allocs > 16 {
		t.Errorf("Run with observability disabled allocates %v per run, want <= 16", allocs)
	}
}

// With decision tracing and telemetry enabled, steady-state allocations
// stay run-constant: the ring is pre-filled after warmup, the candidate
// and slack scratch have grown to the deepest queue, and the telemetry
// columns are recycled by Reset — so captures cost no per-decision
// allocations, on the slack-ranked walk (C-SCAN) and on the queued-value
// walk (the cascade) alike.
func TestRunObservabilityEnabledBoundedAllocs(t *testing.T) {
	skipUnderRace(t)
	var arena workload.Arena
	trace := reuseBenchWorkload().MustGenerateArena(&arena)
	enc, err := core.NewEncapsulator(benchCascadeConfig(t, 3, 700_000))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Scheduler{sched.NewCSCAN(), benchCascade(t, enc, enc, core.ConditionallyPreemptive)} {
		t.Run(s.Name(), func(t *testing.T) {
			var ru Reuse
			dt := NewDecisionTrace(512)
			dt.SetMetrics(&DecisionMetrics{})
			tel := NewTelemetry(50_000)
			tel.SetMetrics(&DecisionMetrics{})
			cfg := Config{
				Disk: xp(), Scheduler: s, Reuse: &ru,
				Options: Options{DropLate: true, Seed: 1, Dims: 3, Levels: 8,
					Decisions: dt, Telemetry: tel},
			}
			MustRun(cfg, trace) // warm: fills the ring, grows scratch and columns
			tel.Reset()
			MustRun(cfg, trace)
			allocs := testing.AllocsPerRun(10, func() {
				tel.Reset()
				MustRun(cfg, trace)
			})
			if allocs > 32 {
				t.Errorf("Run with decision trace + telemetry allocates %v per run, want <= 32", allocs)
			}
		})
	}
}
