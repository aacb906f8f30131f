package sim

import (
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
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

// A popped or reset event's fn closure and station pointer must not stay
// reachable through the queue's spare capacity (the same leak
// queue.removeAt guards against): a retained timer closure can pin a whole
// station's object graph across runs of a recycled engine.
func TestEventHeapPopZeroesSlot(t *testing.T) {
	var h core.Heap4[event]
	st := &Station{}
	fill := func() {
		for i := 0; i < 8; i++ {
			h.Push(core.HeapItem[event]{Key: timeKey(int64(i)), Seq: uint64(i), Val: event{station: st, fn: func(int64) {}}})
		}
	}
	check := func(after string) {
		spare := h.Slice()[:cap(h.Slice())]
		for i := range spare {
			if spare[i].Val.fn != nil || spare[i].Val.station != nil {
				t.Fatalf("heap slot %d retains pointers after %s: %+v", i, after, spare[i])
			}
		}
	}
	fill()
	for h.Len() > 0 {
		h.Pop()
	}
	check("pop")
	fill()
	h.Reset()
	check("reset")
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
		Options: Options{DropLate: true, Dims: 3, Levels: 8},
	}
	MustRun(cfg, trace) // warm: grows the event heap and collector
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
// fresh run — same collector (DeepEqual), same head
// travel — even after the Reuse has served a
// different configuration in between. The fault plan exercises the
// injector and its RNG stream, rebuilt by every run.
func TestReuseMatchesFreshRun(t *testing.T) {
	var arena workload.Arena
	trace := reuseBenchWorkload().MustGenerateArena(&arena)
	opts := Options{DropLate: true, Dims: 3, Levels: 8,
		Fault: &fault.Plan{Seed: 7, TransientRate: 0.05}}
	fresh := MustRun(Config{Disk: xp(), Scheduler: sched.NewCSCAN(), Options: opts}, trace)

	var ru Reuse
	// Dirty the Reuse with a different shape, fault plan and scheduler first.
	other := workload.Open{Seed: 2, Count: 500, MeanInterarrival: 8_000, Dims: 1, Levels: 4, Cylinders: 3832, Size: 4 << 10}.MustGenerate()
	MustRun(Config{Disk: xp(), Scheduler: sched.NewFCFS(), Reuse: &ru,
		Options: Options{Dims: 1, Levels: 4,
			Fault: &fault.Plan{Seed: 99, TransientRate: 0.2}}}, other)

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
		Options: Options{DropLate: true, Dims: 3, Levels: 8,
			Decisions: nil, Telemetry: nil, Shadows: nil},
	}
	MustRun(cfg, trace)
	allocs := testing.AllocsPerRun(10, func() { MustRun(cfg, trace) })
	if allocs > 16 {
		t.Errorf("Run with observability disabled allocates %v per run, want <= 16", allocs)
	}
}

// With decision tracing and telemetry enabled, steady-state allocations
// stay run-constant: both observers build each record or row in one
// scratch value and keep none, and after warmup the candidate and slack
// scratch have grown to the deepest queue — so captures cost no
// per-decision allocations, on the slack-ranked walk (C-SCAN) and on the
// queued-value walk (the cascade) alike. The cascade counts into a sink,
// so the gate covers its instrumented path.
func TestRunObservabilityEnabledBoundedAllocs(t *testing.T) {
	skipUnderRace(t)
	var arena workload.Arena
	trace := reuseBenchWorkload().MustGenerateArena(&arena)
	enc, err := core.NewEncapsulator(benchCascadeConfig(t, 3, 700_000))
	if err != nil {
		t.Fatal(err)
	}
	cascade := benchCascade(t, enc, enc, core.ConditionallyPreemptive)
	cascade.SetMetrics(&core.Metrics{})
	for _, s := range []sched.Scheduler{sched.NewCSCAN(), cascade} {
		t.Run(s.Name(), func(t *testing.T) {
			var ru Reuse
			dt := NewDecisionTrace(0)
			tel := NewTelemetry(50_000)
			cfg := Config{
				Disk: xp(), Scheduler: s, Reuse: &ru,
				Options: Options{DropLate: true, Dims: 3, Levels: 8,
					Decisions: dt, Telemetry: tel},
			}
			MustRun(cfg, trace) // warm: grows the candidate and slack scratch
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

// Observers stream and forget: a run with a fresh decision trace and
// sampler attached (no hooks) allocates only their run-constant scratch
// on top of the bare run, however long the run is. A retained record or
// sampled row would grow this with the run; a trace that honoured its
// capacity argument would hold 1024 records of about 400 bytes.
func TestObserversRetainNothing(t *testing.T) {
	skipUnderRace(t)
	for _, n := range []int{2000, 20000} {
		w := reuseBenchWorkload()
		w.Count = n
		var arena workload.Arena
		trace := w.MustGenerateArena(&arena)
		var ru Reuse
		alloc := func(opts Options) int64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			MustRun(Config{Disk: xp(), Scheduler: sched.NewCSCAN(), Reuse: &ru, Options: opts}, trace)
			runtime.ReadMemStats(&after)
			return int64(after.TotalAlloc - before.TotalAlloc)
		}
		bare := Options{DropLate: true, Dims: 3, Levels: 8}
		alloc(bare) // warm the Reuse
		base := alloc(bare)
		observed := bare
		observed.Decisions = NewDecisionTrace(1024)
		observed.Telemetry = NewTelemetry(50_000)
		if extra := alloc(observed) - base; extra > 64<<10 {
			t.Errorf("%d requests: observers allocate %d bytes over the bare run's %d, want <= %d",
				n, extra, base, 64<<10)
		}
	}
}

// arrayStreamsTrace is a §6 editing mix on array, users streams with a
// fifth of them writing, cut to n logical requests.
func arrayStreamsTrace(t testing.TB, array *disk.RAID5, users, n int) []*core.Request {
	t.Helper()
	perSec := float64(users) * 1_500_000 / float64(array.BlockSize*8)
	trace := workload.Streams{
		Seed: 5, Users: users, Duration: int64(float64(n)/perSec*1.1e6) + 2_000_000,
		BitRate: 1_500_000, BlockSize: array.BlockSize, Levels: 8,
		DeadlineMin: 750_000, DeadlineMax: 1_500_000,
		Cylinders: int(array.MaxBlocks() / 4), WriteFrac: 0.2, Burst: 3,
	}.MustGenerate()
	if len(trace) < n {
		t.Fatalf("streams gave %d requests, want >= %d", len(trace), n)
	}
	return trace[:n]
}

// arrayRunAllocs returns the allocations of one warm SCAN-EDF RunArray of
// n logical requests from users streams, with opts fresh per run from mk.
func arrayRunAllocs(t *testing.T, users, n int, mk func() Options) float64 {
	t.Helper()
	array := testArray(t)
	trace := arrayStreamsTrace(t, array, users, n)
	return testing.AllocsPerRun(5, func() {
		cfg := ArrayConfig{Array: array, Options: mk(),
			NewScheduler: func(int) (sched.Scheduler, error) { return sched.NewSCANEDF(50_000), nil }}
		res, err := RunArray(cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.Logical.Arrived != uint64(n) {
			t.Fatalf("array run saw %d arrivals, want %d", res.Logical.Arrived, n)
		}
	})
}

// RunArray recycles its logical states and physical requests, so a run
// allocates a constant number of times however long its trace is. The
// free lists grow to the run's peak number of requests in flight, so the
// counts are compared at n and 2n logical requests past the point where
// that peak is reached, within a few map and slice growth steps. Before
// the free lists every logical request cost about 3.6 allocations.
func TestRunArrayAllocsConstantInTraceLength(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct {
		name     string
		users, n int
		opts     func() Options
	}{
		{"healthy", 80, 4000, func() Options { return Options{DropLate: true, Dims: 1, Levels: 8} }},
		// Transients with a one-retry budget, and a disk failure with an
		// op in flight and a rebuild that completes early in both runs:
		// the retry, exhausted and re-route paths recycle too. A lighter
		// mix, so the degraded array keeps up and the rebuild finishes.
		{"faults", 30, 2000, func() Options {
			return Options{DropLate: true, Dims: 1, Levels: 8, Fault: &fault.Plan{
				Seed: 3, TransientRate: 0.05, MaxRetries: 1,
				FailDisk: 2, FailAt: 100_000, Rebuild: true, RebuildBlocks: 20,
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			short, long := arrayRunAllocs(t, tc.users, tc.n, tc.opts), arrayRunAllocs(t, tc.users, 2*tc.n, tc.opts)
			t.Logf("allocs per run: %v at %d logical requests, %v at %d", short, tc.n, long, 2*tc.n)
			if math.Abs(long-short) > 8 {
				t.Errorf("RunArray allocates %v at %d logical requests and %v at %d, want within 8",
					short, tc.n, long, 2*tc.n)
			}
		})
	}
}

// BenchmarkObservedRun times the cascade with all four observers attached
// — dispatch trace, decision trace, an EDF shadow and telemetry, as
// schedsim and the sim-observed workload attach them — at two loads:
// sim-observed's (DropLate, mean queue depth ≈ 22 at each decision) and a
// saturated one without DropLate (mean depth ≈ 2 000). One op is one run
// through a Reuse with a fresh cascade and shadow, as a sweep cell makes
// them; ns/request divides it by the trace length. allocs/request counts
// every allocation of the timed runs: a run allocates a run-constant
// handful (the scheduler, the shadow, the result) and nothing per request.
func BenchmarkObservedRun(b *testing.B) {
	enc, err := core.NewEncapsulator(benchCascadeConfig(b, 3, 700_000))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		n            int
		interarrival int64
		drop         bool
	}{
		{"depth22", 5_000, 20_000, true},
		{"saturated", 10_000, 10_000, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var arena workload.Arena
			trace := workload.Open{
				Seed: 1, Count: tc.n, MeanInterarrival: tc.interarrival,
				Dims: 3, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
				Cylinders: 3832, SizeMin: 4 << 10, SizeMax: 128 << 10,
			}.MustGenerateArena(&arena)
			var ru Reuse
			dt, tel := NewDecisionTrace(0), NewTelemetry(100_000)
			run := func() {
				tel.Reset()
				res := MustRun(Config{
					Disk: xp(), Scheduler: benchCascade(b, enc, enc, core.ConditionallyPreemptive), Reuse: &ru,
					Options: Options{DropLate: tc.drop, Dims: 3, Levels: 8,
						Trace: JSONLTrace(io.Discard), Decisions: dt, Telemetry: tel,
						Shadows: []*Shadow{NewShadow("edf", sched.NewEDF())}},
				}, trace)
				if res.Served+res.Dropped != uint64(tc.n) {
					b.Fatalf("served %d + dropped %d of %d requests", res.Served, res.Dropped, tc.n)
				}
			}
			run() // warm: grows the event heap, the queue view and the collector
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			reqs := float64(tc.n) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/request")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/reqs, "allocs/request")
		})
	}
}
