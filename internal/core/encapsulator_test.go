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
		if got := e.ValueAt(req([]int{l}, 0, 0), 0, 0, 0); got != uint64(l) {
			t.Errorf("level %d -> %d", l, got)
		}
	}
	if e.MaxValue() != 8 {
		t.Errorf("MaxValue = %d, want 8", e.MaxValue())
	}
}

func TestStage1ClampsLevels(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{Levels: 8})
	for _, c := range []struct {
		name string
		p    []int
		want uint64
	}{
		{"overflow level", []int{99}, 7},
		{"level == Levels", []int{8}, 7},
		{"negative level", []int{-3}, 0},
		{"missing priorities", nil, 0},
	} {
		if got := e.ValueAt(req(c.p, 0, 0), 0, 0, 0); got != c.want {
			t.Errorf("%s -> %d, want %d", c.name, got, c.want)
		}
	}
}

func TestStage1CurveBounds(t *testing.T) {
	c := sfc.MustNew("hilbert", 3, 16)
	e := MustEncapsulator(EncapsulatorConfig{Curve1: c, Levels: 16})
	for _, p := range [][]int{{0, 0, 0}, {15, 15, 15}, {7, 3, 12}} {
		v := e.ValueAt(req(p, 0, 0), 0, 0, 0)
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
	lo := e.ValueAt(req([]int{15, 0}, 0, 0), 0, 0, 0)
	hi := e.ValueAt(req([]int{0, 1}, 0, 0), 0, 0, 0)
	if lo >= hi {
		t.Errorf("sweep not lexicographic: %d >= %d", lo, hi)
	}
}

func TestStage2PriorityMajorAtFZero(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseDeadline: true, F: 0,
		DeadlineHorizon: 1_000_000,
	})
	// Priority dominates regardless of deadline.
	urgent := e.ValueAt(req([]int{3}, 1_000, 0), 0, 0, 0)    // low priority, tight deadline
	relaxed := e.ValueAt(req([]int{2}, 900_000, 0), 0, 0, 0) // higher priority, slack deadline
	if relaxed >= urgent {
		t.Errorf("f=0 should order by priority: %d >= %d", relaxed, urgent)
	}
	// Equal priority: earlier deadline first.
	a := e.ValueAt(req([]int{3}, 1_000, 0), 0, 0, 0)
	b := e.ValueAt(req([]int{3}, 900_000, 0), 0, 0, 0)
	if a >= b {
		t.Errorf("tie should break by deadline: %d >= %d", a, b)
	}
}

func TestStage2DeadlineMajorAtFInf(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseDeadline: true, F: math.Inf(1),
		DeadlineHorizon: 1_000_000,
	})
	urgent := e.ValueAt(req([]int{7}, 10_000, 0), 0, 0, 0)
	relaxed := e.ValueAt(req([]int{0}, 900_000, 0), 0, 0, 0)
	if urgent >= relaxed {
		t.Errorf("f=inf should order by deadline: %d >= %d", urgent, relaxed)
	}
	// Equal slack: higher priority first.
	a := e.ValueAt(req([]int{1}, 500_000, 0), 0, 0, 0)
	b := e.ValueAt(req([]int{6}, 500_000, 0), 0, 0, 0)
	if a >= b {
		t.Errorf("tie should break by priority: %d >= %d", a, b)
	}
}

// F == 0's earliest-deadline tie break reaches v_c only with the seek
// stage off: stage 3 rescales the 2^32 stage-2 values onto ps·R ≈ 4 096
// cells, which keeps the priority and drops the deadline under it. Two
// top-priority requests that differ only in deadline are ordered at R = 0
// and get equal values at R = 3, schedsim's default.
func TestTieBreakNeedsSeekStageOff(t *testing.T) {
	cfg := EncapsulatorConfig{
		Curve1: sfc.MustNew("hilbert", 3, 8), Levels: 8,
		UseDeadline: true, F: 0, DeadlineHorizon: 700_000, DeadlineSlack: true,
	}
	soon, later := req([]int{0, 0, 0}, 100_000, 500), req([]int{0, 0, 0}, 600_000, 500)
	e := MustEncapsulator(cfg)
	if a, b := e.ValueAt(soon, 0, 0, 0), e.ValueAt(later, 0, 0, 0); a >= b {
		t.Errorf("R = 0: earlier deadline valued %d, later %d; want the earlier first", a, b)
	}
	cfg.UseCylinder, cfg.R, cfg.Cylinders = true, 3, 3832
	e = MustEncapsulator(cfg)
	if a, b := e.ValueAt(soon, 0, 0, 0), e.ValueAt(later, 0, 0, 0); a != b {
		t.Errorf("R = 3: values %d and %d, want equal: the seek stage keeps no deadline bits under the priority", a, b)
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
		return e.ValueAt(tight, 0, 0, 0) < e.ValueAt(slack, 0, 0, 0)
	}
	if rank(0.01) {
		t.Error("at tiny f, priority should dominate")
	}
	if !rank(100) {
		t.Error("at large f, deadline should dominate")
	}
}

// The weighted sum's largest input, the top priority level (pn =
// stage2Res-1) at d = DeadlineHorizon, stays below MaxValue for F up to the
// largest value NewEncapsulator accepts, at horizon/span ratios from 1 to
// 2^63: the stage-2 bound needs no clamp.
func TestStage2WeightedSumBelowMaxValue(t *testing.T) {
	for _, g := range []struct{ horizon, span int64 }{
		{1, 1}, {1_000_000, 1_000_000}, {1_000_000, 7}, {1_000_000, 1},
		{3_600_000_000, 250_000}, {math.MaxInt64, 1},
	} {
		cfg := func(f float64) EncapsulatorConfig {
			return EncapsulatorConfig{Levels: stage2Res, UseDeadline: true, F: f,
				DeadlineHorizon: g.horizon, DeadlineSpan: g.span}
		}
		accepts := func(f float64) bool {
			_, err := NewEncapsulator(cfg(f))
			return err == nil
		}
		// Bisect to the largest accepted F: lo accepted, hi not, until
		// they are adjacent floats.
		lo, hi := 0.0, 1.0
		for accepts(hi) {
			lo, hi = hi, hi*2
		}
		for mid := lo + (hi-lo)/2; mid > lo && mid < hi; mid = lo + (hi-lo)/2 {
			if accepts(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		top := req([]int{stage2Res - 1}, g.horizon, 0)
		fs := []float64{lo, math.Nextafter(lo, 0), math.Nextafter(math.Nextafter(lo, 0), 0)}
		for k := 1; k <= 128; k++ {
			fs = append(fs, lo*math.Pow(2, -float64(k)/4))
		}
		for _, f := range fs {
			e := MustEncapsulator(cfg(f))
			if e.stage1(top) != stage2Res-1 {
				t.Fatalf("top level reaches stage 2 as %d, want %d", e.stage1(top), stage2Res-1)
			}
			if v := e.ValueAt(top, 0, 0, 0); v >= e.MaxValue() {
				t.Errorf("horizon %d, span %d, F=%v: ValueAt = %d >= MaxValue %d", g.horizon, g.span, f, v, e.MaxValue())
			}
		}
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
	if e.ValueAt(r, 0, 0, 0) != e.ValueAt(r, 300_000, 0, 0) {
		t.Error("absolute mode should be time-invariant")
	}
	// An earlier absolute deadline always wins, whatever the arrival gap.
	old := e.ValueAt(req([]int{0}, 600_000, 0), 0, 0, 0)
	fresh := e.ValueAt(req([]int{0}, 700_000, 0), 300_000, 0, 0)
	if old >= fresh {
		t.Errorf("earlier deadline should order first: %d >= %d", old, fresh)
	}
}

func TestStage2DeadlineClamping(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 1, UseDeadline: true, F: 1, DeadlineHorizon: 100_000,
	})
	distant := e.ValueAt(req([]int{0}, 1<<40, 0), 0, 0, 0)   // beyond horizon
	horizon := e.ValueAt(req([]int{0}, 100_000, 0), 0, 0, 0) // exactly horizon
	none := e.ValueAt(req([]int{0}, 0, 0), 0, 0, 0)          // no deadline
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
	early := e.ValueAt(r, 0, 0, 0)
	late := e.ValueAt(r, 80_000, 0, 0)
	if late >= early {
		t.Errorf("slack mode should grow more urgent over time: %d >= %d", late, early)
	}
	// Expired deadlines clamp to zero slack.
	if got := e.ValueAt(req([]int{0}, 1_000, 0), 50_000, 0, 0); got != e.ValueAt(req([]int{0}, 50_000, 0), 50_000, 0, 0) {
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
	if x.ValueAt(urgentLow, 0, 0, 0) >= x.ValueAt(slackHigh, 0, 0, 0) {
		t.Error("Sweep-X should behave like EDF")
	}
	baseY := base
	baseY.Curve2PriorityOnY = true
	y := MustEncapsulator(baseY)
	if y.ValueAt(slackHigh, 0, 0, 0) >= y.ValueAt(urgentLow, 0, 0, 0) {
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
	ahead := e.ValueAt(req([]int{7}, 0, 310), 0, head, 0)
	behind := e.ValueAt(req([]int{0}, 0, 290), 0, head, 0)
	if ahead >= behind {
		t.Errorf("R=1 should order by scan position: %d >= %d", ahead, behind)
	}
	// Same cylinder: higher priority first.
	hp := e.ValueAt(req([]int{0}, 0, 500), 0, head, 0)
	lp := e.ValueAt(req([]int{7}, 0, 500), 0, head, 0)
	if hp >= lp {
		t.Errorf("same-cylinder tie should break by priority: %d >= %d", hp, lp)
	}
}

func TestStage3PriorityMajorAtLargeR(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseCylinder: true, R: stage3Res, Cylinders: 1000,
	})
	hpFar := e.ValueAt(req([]int{0}, 0, 999), 0, 0, 0)
	lpNear := e.ValueAt(req([]int{7}, 0, 1), 0, 0, 0)
	if hpFar >= lpNear {
		t.Errorf("large R should order by priority: %d >= %d", hpFar, lpNear)
	}
}

func TestStage3PartitionLayout(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseCylinder: true, R: 4, Cylinders: 100,
	})
	// All partition-0 values precede all partition-1 values.
	p0max := e.ValueAt(req([]int{1}, 0, 99), 0, 0, 0) // highest cylinder, partition 0
	p1min := e.ValueAt(req([]int{2}, 0, 0), 0, 0, 0)  // lowest cylinder, partition 1
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
	wrap := e.ValueAt(req([]int{0}, 0, 100), 0, head, 0)   // 200 ahead after wrap
	noWrap := e.ValueAt(req([]int{0}, 0, 950), 0, head, 0) // 50 ahead
	if noWrap >= wrap {
		t.Errorf("cyclic distance broken: %d >= %d", noWrap, wrap)
	}
	// The head's own cylinder is 0 ahead, not a whole sweep: it ranks
	// first, and the cylinder just behind the head last.
	atHead := e.ValueAt(req([]int{0}, 0, head), 0, head, 0)
	behind := e.ValueAt(req([]int{0}, 0, head-1), 0, head, 0)
	if atHead >= noWrap || behind <= wrap {
		t.Errorf("at the head %d, 50 ahead %d, 200 ahead %d, 1 behind %d", atHead, noWrap, wrap, behind)
	}
}

// A head outside the disk reads as the nearest cylinder on it, the head
// Scheduler.observeHead advances the sweep timeline by, so the distance
// ahead is never measured from a cylinder the disk does not have.
func TestStage3ClampsTheHead(t *testing.T) {
	const cyls = 3832
	e := MustEncapsulator(EncapsulatorConfig{
		Curve1: sfc.MustNew("hilbert", 3, 16), Levels: 16,
		UseDeadline: true, F: 1, DeadlineHorizon: 700_000,
		UseCylinder: true, R: 3, Cylinders: cyls,
	})
	for _, r := range []*Request{
		req([]int{0, 0, 0}, 100_000, 0),
		req([]int{8, 2, 11}, 350_000, 1916),
		req([]int{15, 15, 15}, 700_000, cyls-1),
	} {
		for _, c := range []struct{ head, clamped int }{
			{-1, 0}, {cyls, cyls - 1}, {cyls + 68, cyls - 1},
		} {
			got := e.ValueAt(r, 0, c.head, 5000)
			if want := e.ValueAt(r, 0, c.clamped, 5000); got != want {
				t.Errorf("cylinder %d, head %d: v_c %d, at head %d %d", r.Cylinder, c.head, got, c.clamped, want)
			}
		}
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
		v := e.ValueAt(r, 0, 1000, 0)
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
	// A v at or past from counts as from − 1, on the shift path and on
	// the 128-bit one.
	for _, g := range [][2]uint64{{16, 64}, {1000, 64}, {10, 7}} {
		from, to := g[0], g[1]
		want := scale(from-1, from, to)
		for _, v := range []uint64{from, from + 1, math.MaxUint64} {
			if got := scale(v, from, to); got != want {
				t.Errorf("scale(%d, %d, %d) = %d, want %d (v clamped to from-1)", v, from, to, got, want)
			}
		}
	}
}

func TestEncapsulatorValidation(t *testing.T) {
	// The weighted-sum value space, (majors+1)·stage2Res values, must fit
	// in 64 bits: an F whose majors = (1 + F)·wScale reach
	// MaxUint64/stage2Res − 1 (2^48 − 2, exact in float64) is rejected, the
	// bound itself included.
	fAtBound := float64(math.MaxUint64/stage2Res-1)/wScale - 1
	bad := []EncapsulatorConfig{
		{Levels: 8, UseDeadline: true, DeadlineHorizon: 1000, F: fAtBound},
		{},
		{Levels: 32, Curve1: sfc.MustNew("sweep", 2, 16)},
		// A 2-D sweep has a side of 2^31+1, but the level table must not
		// take 8 GiB: the level count is bounded first.
		{Levels: 1<<31 + 1, Curve1: sfc.MustNew("sweep", 2, 1<<31+1)},
		{Levels: MaxLevels + 1},
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
	if _, err := NewEncapsulator(EncapsulatorConfig{Levels: 8, UseCylinder: true, R: 1, Cylinders: 1}); err != nil {
		t.Errorf("a one-cylinder disk rejected: %v", err)
	}
	if _, err := NewEncapsulator(EncapsulatorConfig{Levels: MaxLevels, Curve1: sfc.MustNew("sweep", 2, MaxLevels)}); err != nil {
		t.Errorf("MaxLevels levels rejected: %v", err)
	}
	// The F just below the bound builds, its values ordered inside MaxValue.
	below := math.Nextafter(fAtBound, 0)
	e, err := NewEncapsulator(EncapsulatorConfig{Levels: 8, UseDeadline: true, DeadlineHorizon: 1000, F: below})
	if err != nil {
		t.Fatalf("F = %v, just below the overflow bound, rejected: %v", below, err)
	}
	first, last := e.ValueAt(req([]int{0}, 1, 0), 0, 0, 0), e.ValueAt(req([]int{7}, 1000, 0), 0, 0, 0)
	if !(first < last && last < e.MaxValue()) {
		t.Errorf("F = %v: values %d .. %d, MaxValue %d; want ordered and inside", below, first, last, e.MaxValue())
	}
}

// A NaN fails every comparison, so a range check written x < lo || x > hi
// lets it through; each float check of the cascade's constructors must
// reject it.
func TestFloatChecksRejectNaN(t *testing.T) {
	nan := math.NaN()
	for name, build := range map[string]func() error{
		"window fraction": func() error {
			_, err := NewScheduler("x", EncapsulatorConfig{Levels: 8}, DispatcherConfig{}, nan)
			return err
		},
		"F": func() error {
			_, err := NewEncapsulator(EncapsulatorConfig{Levels: 8, UseDeadline: true, DeadlineHorizon: 1000, F: nan})
			return err
		},
		"Expansion": func() error {
			_, err := NewDispatcher(DispatcherConfig{Mode: ConditionallyPreemptive, ER: true, Expansion: nan})
			return err
		},
	} {
		if build() == nil {
			t.Errorf("%s NaN accepted", name)
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
		e.ValueAt(req([]int{1, 2, 3}, 0, 0), 0, 0, 0)
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
