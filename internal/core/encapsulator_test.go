package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sfcsched/internal/sfc"
)

func req(priorities []int, deadline int64, cyl int) *Request {
	return &Request{Priorities: priorities, Deadline: deadline, Cylinder: cyl}
}

func TestStage1PassthroughWithoutCurve(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{Levels: 8})
	for l := 0; l < 8; l++ {
		if got := e.Value(req([]int{l}, 0, 0), 0, 0); got != uint64(l) {
			t.Errorf("level %d -> %d", l, got)
		}
	}
	if e.MaxValue() != 8 {
		t.Errorf("MaxValue = %d, want 8", e.MaxValue())
	}
}

func TestStage1ClampsLevels(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{Levels: 8})
	if got := e.Value(req([]int{99}, 0, 0), 0, 0); got != 7 {
		t.Errorf("overflow level -> %d, want 7", got)
	}
	if got := e.Value(req([]int{-3}, 0, 0), 0, 0); got != 0 {
		t.Errorf("negative level -> %d, want 0", got)
	}
	if got := e.Value(req(nil, 0, 0), 0, 0); got != 0 {
		t.Errorf("missing priorities -> %d, want 0", got)
	}
}

func TestStage1CurveBounds(t *testing.T) {
	c := sfc.MustNew("hilbert", 3, 16)
	e := MustEncapsulator(EncapsulatorConfig{Curve1: c, Levels: 16})
	for _, p := range [][]int{{0, 0, 0}, {15, 15, 15}, {7, 3, 12}} {
		v := e.Value(req(p, 0, 0), 0, 0)
		if v >= e.MaxValue() {
			t.Errorf("value %d >= MaxValue %d for %v", v, e.MaxValue(), p)
		}
	}
	if e.MaxValue() != c.MaxIndex() {
		t.Errorf("MaxValue = %d, want curve MaxIndex %d", e.MaxValue(), c.MaxIndex())
	}
}

func TestStage1SweepIsLexicographic(t *testing.T) {
	c := sfc.MustNew("sweep", 2, 16)
	e := MustEncapsulator(EncapsulatorConfig{Curve1: c, Levels: 16})
	// Dimension 1 is most significant: any difference there dominates.
	lo := e.Value(req([]int{15, 0}, 0, 0), 0, 0)
	hi := e.Value(req([]int{0, 1}, 0, 0), 0, 0)
	if lo >= hi {
		t.Errorf("sweep not lexicographic: %d >= %d", lo, hi)
	}
}

func TestStage2PriorityMajorAtFZero(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseDeadline: true, F: 0, Tie: TieDeadline,
		DeadlineHorizon: 1_000_000,
	})
	// Priority dominates regardless of deadline.
	urgent := e.Value(req([]int{3}, 1_000, 0), 0, 0)    // low priority, tight deadline
	relaxed := e.Value(req([]int{2}, 900_000, 0), 0, 0) // higher priority, slack deadline
	if relaxed >= urgent {
		t.Errorf("f=0 should order by priority: %d >= %d", relaxed, urgent)
	}
	// Equal priority: earlier deadline first.
	a := e.Value(req([]int{3}, 1_000, 0), 0, 0)
	b := e.Value(req([]int{3}, 900_000, 0), 0, 0)
	if a >= b {
		t.Errorf("tie should break by deadline: %d >= %d", a, b)
	}
}

func TestStage2DeadlineMajorAtFInf(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseDeadline: true, F: math.Inf(1), Tie: TiePriority,
		DeadlineHorizon: 1_000_000,
	})
	urgent := e.Value(req([]int{7}, 10_000, 0), 0, 0)
	relaxed := e.Value(req([]int{0}, 900_000, 0), 0, 0)
	if urgent >= relaxed {
		t.Errorf("f=inf should order by deadline: %d >= %d", urgent, relaxed)
	}
	// Equal slack: higher priority first.
	a := e.Value(req([]int{1}, 500_000, 0), 0, 0)
	b := e.Value(req([]int{6}, 500_000, 0), 0, 0)
	if a >= b {
		t.Errorf("tie should break by priority: %d >= %d", a, b)
	}
}

func TestStage2BalanceMonotoneInF(t *testing.T) {
	// As f grows, a tight-deadline low-priority request should overtake a
	// slack-deadline high-priority one.
	tight := req([]int{6}, 50_000, 0)
	slack := req([]int{1}, 900_000, 0)
	rank := func(f float64) bool { // true when tight wins
		e := MustEncapsulator(EncapsulatorConfig{
			Levels: 8, UseDeadline: true, F: f, DeadlineHorizon: 1_000_000,
		})
		return e.Value(tight, 0, 0) < e.Value(slack, 0, 0)
	}
	if rank(0.01) {
		t.Error("at tiny f, priority should dominate")
	}
	if !rank(100) {
		t.Error("at large f, deadline should dominate")
	}
}

func TestStage2AbsoluteDeadlineIgnoresArrivalSkew(t *testing.T) {
	// In the default absolute mode, the value of a request depends only on
	// its deadline, not on when it was enqueued — two computations of the
	// same request at different times agree, so no arrival-order bias.
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 1, UseDeadline: true, F: 1, DeadlineHorizon: 1_000_000,
	})
	r := req([]int{0}, 600_000, 0)
	if e.Value(r, 0, 0) != e.Value(r, 300_000, 0) {
		t.Error("absolute mode should be time-invariant")
	}
	// An earlier absolute deadline always wins, whatever the arrival gap.
	old := e.Value(req([]int{0}, 600_000, 0), 0, 0)
	fresh := e.Value(req([]int{0}, 700_000, 0), 300_000, 0)
	if old >= fresh {
		t.Errorf("earlier deadline should order first: %d >= %d", old, fresh)
	}
}

func TestStage2DeadlineClamping(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 1, UseDeadline: true, F: 1, DeadlineHorizon: 100_000,
	})
	distant := e.Value(req([]int{0}, 1<<40, 0), 0, 0)   // beyond horizon
	horizon := e.Value(req([]int{0}, 100_000, 0), 0, 0) // exactly horizon
	none := e.Value(req([]int{0}, 0, 0), 0, 0)          // no deadline
	if distant != horizon {
		t.Error("deadline beyond horizon should clamp")
	}
	if none != horizon {
		t.Error("missing deadline should map to the least urgent cell")
	}
}

func TestStage2SlackMode(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 1, UseDeadline: true, F: 1, DeadlineHorizon: 100_000,
		DeadlineSlack: true,
	})
	// In slack mode the value shrinks as the deadline approaches.
	r := req([]int{0}, 90_000, 0)
	early := e.Value(r, 0, 0)
	late := e.Value(r, 80_000, 0)
	if late >= early {
		t.Errorf("slack mode should grow more urgent over time: %d >= %d", late, early)
	}
	// Expired deadlines clamp to zero slack.
	if got := e.Value(req([]int{0}, 1_000, 0), 50_000, 0); got != e.Value(req([]int{0}, 50_000, 0), 50_000, 0) {
		t.Errorf("expired deadline should clamp to zero slack, got %d", got)
	}
}

func TestStage2CurveSweepAxes(t *testing.T) {
	// Sweep-X (priority on X, deadline on Y) orders by deadline;
	// Sweep-Y (priority on Y) orders by priority (multi-queue).
	sweep := sfc.MustNew("sweep", 2, 64)
	base := EncapsulatorConfig{
		Levels: 8, UseDeadline: true, Curve2: sweep, DeadlineHorizon: 1_000_000,
	}
	x := MustEncapsulator(base)
	urgentLow := req([]int{7}, 50_000, 0)
	slackHigh := req([]int{0}, 900_000, 0)
	if x.Value(urgentLow, 0, 0) >= x.Value(slackHigh, 0, 0) {
		t.Error("Sweep-X should behave like EDF")
	}
	baseY := base
	baseY.Curve2PriorityOnY = true
	y := MustEncapsulator(baseY)
	if y.Value(slackHigh, 0, 0) >= y.Value(urgentLow, 0, 0) {
		t.Error("Sweep-Y should behave like multi-queue (priority major)")
	}
}

func TestStage3PureScanAtR1(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseCylinder: true, R: 1, Cylinders: 1000,
	})
	head := 300
	// Cylinders ahead of the head order before cylinders behind it,
	// regardless of priority.
	ahead := e.Value(req([]int{7}, 0, 310), 0, head)
	behind := e.Value(req([]int{0}, 0, 290), 0, head)
	if ahead >= behind {
		t.Errorf("R=1 should order by scan position: %d >= %d", ahead, behind)
	}
	// Same cylinder: higher priority first.
	hp := e.Value(req([]int{0}, 0, 500), 0, head)
	lp := e.Value(req([]int{7}, 0, 500), 0, head)
	if hp >= lp {
		t.Errorf("same-cylinder tie should break by priority: %d >= %d", hp, lp)
	}
}

func TestStage3PriorityMajorAtLargeR(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseCylinder: true, R: stage3Res, Cylinders: 1000,
	})
	hpFar := e.Value(req([]int{0}, 0, 999), 0, 0)
	lpNear := e.Value(req([]int{7}, 0, 1), 0, 0)
	if hpFar >= lpNear {
		t.Errorf("large R should order by priority: %d >= %d", hpFar, lpNear)
	}
}

func TestStage3PartitionLayout(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseCylinder: true, R: 4, Cylinders: 100,
	})
	// All partition-0 values precede all partition-1 values.
	p0max := e.Value(req([]int{1}, 0, 99), 0, 0) // highest cylinder, partition 0
	p1min := e.Value(req([]int{2}, 0, 0), 0, 0)  // lowest cylinder, partition 1
	if p0max >= p1min {
		t.Errorf("partition order violated: %d >= %d", p0max, p1min)
	}
	if e.MaxValue() != uint64(100)*e.ps*4 {
		t.Errorf("MaxValue = %d", e.MaxValue())
	}
}

func TestStage3CylinderDistanceIsCyclic(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 1, UseCylinder: true, R: 1, Cylinders: 1000,
	})
	head := 900
	wrap := e.Value(req([]int{0}, 0, 100), 0, head)   // 200 ahead after wrap
	noWrap := e.Value(req([]int{0}, 0, 950), 0, head) // 50 ahead
	if noWrap >= wrap {
		t.Errorf("cyclic distance broken: %d >= %d", noWrap, wrap)
	}
}

func TestFullCascadeInBounds(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Curve1: sfc.MustNew("hilbert", 3, 16), Levels: 16,
		UseDeadline: true, F: 1, DeadlineHorizon: 700_000,
		UseCylinder: true, R: 3, Cylinders: 3832,
	})
	reqs := []*Request{
		req([]int{0, 0, 0}, 100_000, 0),
		req([]int{15, 15, 15}, 700_000, 3831),
		req([]int{8, 2, 11}, 350_000, 1916),
	}
	for _, r := range reqs {
		v := e.Value(r, 0, 1000)
		if v >= e.MaxValue() {
			t.Errorf("v_c %d >= MaxValue %d", v, e.MaxValue())
		}
	}
}

func TestScaleOrderPreserving(t *testing.T) {
	prev := uint64(0)
	for v := uint64(0); v < 1000; v++ {
		s := scale(v, 1000, 64)
		if s < prev || s >= 64 {
			t.Fatalf("scale(%d) = %d (prev %d)", v, s, prev)
		}
		prev = s
	}
	if scale(999, 1000, 64) != 63 {
		t.Errorf("top of range should map to 63, got %d", scale(999, 1000, 64))
	}
	if scale(5, 0, 64) != 0 {
		t.Error("empty source range should map to 0")
	}
}

func TestEncapsulatorValidation(t *testing.T) {
	bad := []EncapsulatorConfig{
		{},
		{Levels: 32, Curve1: sfc.MustNew("sweep", 2, 16)},
		{Levels: 8, UseDeadline: true},
		{Levels: 8, UseDeadline: true, DeadlineHorizon: 1000, F: -1},
		{Levels: 8, UseDeadline: true, DeadlineHorizon: 1000, Curve2: sfc.MustNew("sweep", 3, 8)},
		{Levels: 8, UseCylinder: true, R: 0, Cylinders: 100},
		{Levels: 8, UseCylinder: true, R: 3},
	}
	for i, cfg := range bad {
		if _, err := NewEncapsulator(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

// TestUsedEncapsulatorIsCollectedAtNextGC: the runtime keeps a used
// sync.Pool reachable for two collections, so a pool embedded in the
// encapsulator (or one whose New closes over it) pins the encapsulator
// that long — in a sweep that builds one per cell, several thousand at
// once. Curve tables are shared by design (sfc.Accelerate keeps one per
// grid for the process), but the encapsulator itself holds per-instance
// scratch and must still go at the first collection.
func TestUsedEncapsulatorIsCollectedAtNextGC(t *testing.T) {
	collected := make(chan struct{})
	func() {
		e := MustEncapsulator(EncapsulatorConfig{Curve1: sfc.MustNew("hilbert", 3, 8), Levels: 8})
		e.Value(req([]int{1, 2, 3}, 0, 0), 0, 0)
		runtime.SetFinalizer(e, func(*Encapsulator) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(2 * time.Second):
		t.Error("an encapsulator used once and dropped survived a collection")
	}
}

// TestSchedulersOwnTheirEncapsulator: an encapsulator works in its own
// scratch, so what may run concurrently is two schedulers, never two calls
// into one. Two schedulers built from one config — sharing its curve
// values, each with its own encapsulator — driven from two goroutines must
// each produce the serial dispatch order (and stay silent under -race).
func TestSchedulersOwnTheirEncapsulator(t *testing.T) {
	configs := map[string]EncapsulatorConfig{
		"table": shardedTestConfig(),
		// A grid past MaxLUTCells with a curve stage 2: both curves are
		// walked in the scratch on every call.
		"walked": {
			Curve1: sfc.MustNew("hilbert", 6, 8), Levels: 8,
			UseDeadline: true, DeadlineHorizon: 700_000, Curve2: sfc.MustNew("hilbert", 2, 512),
			UseCylinder: true, R: 3, Cylinders: 3832,
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			trace := make([]*Request, 4000)
			for i := range trace {
				r := randomRequest(rng, uint64(i))
				r.Arrival = int64(i) * 900
				r.Deadline += r.Arrival
				trace[i] = r
			}
			// Three arrivals per service keep a standing queue; the rest
			// drains at the end.
			run := func() []uint64 {
				s := MustScheduler("", cfg, DispatcherConfig{Mode: ConditionallyPreemptive, SP: true}, 0.02)
				order := make([]uint64, 0, len(trace))
				head := 0
				serve := func(now int64) bool {
					r := s.Next(now, head)
					if r == nil {
						return false
					}
					order, head = append(order, r.ID), r.Cylinder
					return true
				}
				for i, r := range trace {
					s.Add(r, r.Arrival, head)
					if i%3 == 2 {
						serve(r.Arrival)
					}
				}
				for serve(trace[len(trace)-1].Arrival) {
				}
				return order
			}
			want := run()
			if len(want) != len(trace) {
				t.Fatalf("serial run dispatched %d of %d requests", len(want), len(trace))
			}
			var got [2][]uint64
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g] = run()
				}()
			}
			wg.Wait()
			for g := range got {
				if !slices.Equal(got[g], want) {
					t.Errorf("goroutine %d diverged from the serial dispatch order", g)
				}
			}
		})
	}
}
