package serve

import (
	"context"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/workload"
)

// liveCylinders is the Table 1 geometry the saturating runs serve over.
const liveCylinders = 3832

// liveCascade is the scheduler bench/run.sh's serve-live workload serves
// with: the serving tests' cascade over three priority dimensions, fully
// preemptive.
func liveCascade() *core.Scheduler {
	return cascade(3, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
}

// liveRing is serve-live's request ring: 8192 recycled requests, more than
// the 1024 MaxQueue admits, so none is queued twice. They carry no
// deadlines — a recycled request has no meaningful absolute deadline on a
// clock that keeps running — and the ID is the ring slot.
func liveRing() []*core.Request {
	ring := workload.Open{
		Seed: 1, Count: 8192, MeanInterarrival: 20_000,
		Dims: 3, Levels: 8, Cylinders: liveCylinders, SizeMin: 4 << 10, SizeMax: 128 << 10,
	}.MustGenerate()
	for i, r := range ring {
		r.ID, r.Arrival, r.Deadline = uint64(i), 0, 0
	}
	return ring
}

// zeroCost is a backend over the Table 1 geometry whose services cost
// nothing. With log set it keeps the clamped target of every service; one
// worker calls it, so the log needs no lock, and it is read after Drain.
type zeroCost struct {
	log     bool
	targets []int
}

func (z *zeroCost) Cylinders() int { return liveCylinders }

func (z *zeroCost) Serve(_ context.Context, r *core.Request, _ int) (Completion, error) {
	if z.log {
		z.targets = append(z.targets, min(max(r.Cylinder, 0), liveCylinders-1))
	}
	return Completion{}, nil
}

// startSaturated starts a serve-live-shaped dispatcher over s and b: one
// worker, MaxQueue 1024, dilation 1.
func startSaturated(tb testing.TB, s *core.Scheduler, b Backend) *Dispatcher {
	tb.Helper()
	clock, err := NewClock(1)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := New(Config{Sched: s, Backend: b, Clock: clock, MaxQueue: 1024, Metrics: &Metrics{}})
	if err != nil {
		tb.Fatal(err)
	}
	d.Start(context.Background())
	return d
}

// pushThrough makes n submissions of ring into d from one producer, then
// drains d.
func pushThrough(tb testing.TB, d *Dispatcher, ring []*core.Request, n int) {
	tb.Helper()
	ctx := context.Background()
	mask := len(ring) - 1
	for i := 0; i < n; i++ {
		if err := d.Submit(ctx, ring[i&mask]); err != nil {
			tb.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := d.Drain(ctx); err != nil {
		tb.Fatalf("Drain: %v", err)
	}
}

// TestDispatcherSweepFollowsServedTargets pins that a submission anchors
// its value on a head no older than the scheduler last saw: the sweep
// timeline must advance by exactly the cyclic progress of the targets the
// backend served, from cylinder 0. A head read before the ingress lock
// could lag two dispatches behind, and the scheduler would count the step
// back as almost a whole forward sweep.
func TestDispatcherSweepFollowsServedTargets(t *testing.T) {
	n := 200_000
	if raceEnabled {
		n = 20_000
	}
	s := liveCascade()
	m := &core.Metrics{}
	s.SetMetrics(m)
	b := &zeroCost{log: true, targets: make([]int, 0, n)}
	pushThrough(t, startSaturated(t, s, b), liveRing(), n)
	if len(b.targets) != n {
		t.Fatalf("backend served %d of %d", len(b.targets), n)
	}
	var want int64
	head := 0
	for _, target := range b.targets {
		want += int64((target - head + liveCylinders) % liveCylinders)
		head = target
	}
	if got := m.SweepProgress.Load(); got != want {
		t.Fatalf("sweep progress %d cylinders, served targets swept %d: %d spurious sweeps",
			got, want, (got-want)/liveCylinders)
	}
}

// BenchmarkDispatcherSaturate times serve-live's saturate phase as a go
// test: one producer pushing through MaxQueue backpressure into the
// serve-live cascade, one worker serving against a backend that costs
// nothing. ns/op is per request, the drain of the last queue included.
func BenchmarkDispatcherSaturate(b *testing.B) {
	ring := liveRing()
	d := startSaturated(b, liveCascade(), &zeroCost{})
	b.ReportAllocs()
	b.ResetTimer()
	pushThrough(b, d, ring, b.N)
}
