package core

import (
	"strings"
	"testing"

	"sfcsched/internal/sfc"
	"sfcsched/internal/stats"
)

// Additional depth tests for cascade edge cases and stage interactions.

func TestStage3NonDividingR(t *testing.T) {
	// R = 5 does not divide the 4096-cell X axis; partition width rounds
	// up and the effective axis is ps*R.
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseCylinder: true, R: 5, Cylinders: 100,
	})
	if e.ps != (stage3Res+4)/5 {
		t.Errorf("partition size = %d, want ceil(%d/5)", e.ps, stage3Res)
	}
	if e.maxX != e.ps*5 {
		t.Errorf("effective X axis = %d, want %d", e.maxX, e.ps*5)
	}
	// Values stay coherent: the highest priority in the furthest cylinder
	// still computes, and partition precedence holds per sweep.
	v0 := e.ValueAt(&Request{Priorities: []int{0}, Cylinder: 99}, 0, 0, 0)
	v4 := e.ValueAt(&Request{Priorities: []int{7}, Cylinder: 0}, 0, 0, 0)
	if v0 >= v4 {
		t.Errorf("partition precedence broken: %d >= %d", v0, v4)
	}
}

func TestCascadeWindowFractionWithCylinderStage(t *testing.T) {
	s := MustScheduler("w", EncapsulatorConfig{
		Levels: 8, UseCylinder: true, R: 4, Cylinders: 1000,
	}, DispatcherConfig{Mode: ConditionallyPreemptive}, 0.1)
	want := uint64(0.1 * float64(s.v.(*Encapsulator).MaxValue()))
	if got := s.disp.Window(); got != want {
		t.Errorf("window = %d, want %d (10%% of one sweep cycle)", got, want)
	}
}

func TestShortPriorityVectorPadsWithHighest(t *testing.T) {
	// A request carrying fewer priority dimensions than the curve is
	// padded with level 0 (highest) in the missing dimensions.
	e := MustEncapsulator(EncapsulatorConfig{
		Curve1: sfc.MustNew("sweep", 3, 8), Levels: 8,
	})
	short := e.ValueAt(&Request{Priorities: []int{3}}, 0, 0, 0)
	full := e.ValueAt(&Request{Priorities: []int{3, 0, 0}}, 0, 0, 0)
	if short != full {
		t.Errorf("short vector value %d != padded vector value %d", short, full)
	}
}

func TestCurve1SideLargerThanLevels(t *testing.T) {
	// 8 levels on a 16-cell curve axis: levels scale onto even cells and
	// stay strictly ordered.
	e := MustEncapsulator(EncapsulatorConfig{
		Curve1: sfc.MustNew("sweep", 1, 16), Levels: 8,
	})
	prev := uint64(0)
	for l := 0; l < 8; l++ {
		v := e.ValueAt(&Request{Priorities: []int{l}}, 0, 0, 0)
		if l > 0 && v <= prev {
			t.Fatalf("levels not strictly ordered at %d: %d <= %d", l, v, prev)
		}
		prev = v
	}
}

func TestStage2Curve2RejectsNon2D(t *testing.T) {
	_, err := NewEncapsulator(EncapsulatorConfig{
		Levels: 8, UseDeadline: true, DeadlineHorizon: 1000,
		Curve2: sfc.MustNew("hilbert", 3, 8),
	})
	if err == nil {
		t.Error("expected error for 3-D Curve2")
	}
}

func TestDeadlineSpanValidation(t *testing.T) {
	if _, err := NewEncapsulator(EncapsulatorConfig{
		Levels: 8, UseDeadline: true, DeadlineHorizon: 1000, DeadlineSpan: 2000,
	}); err == nil {
		t.Error("expected error for span > horizon")
	}
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 1000,
	})
	if e.cfg.DeadlineSpan != 1000 {
		t.Errorf("span should default to horizon, got %d", e.cfg.DeadlineSpan)
	}
}

func TestSweepTimelineWrapsAreForwardOnly(t *testing.T) {
	s := MustScheduler("x", EncapsulatorConfig{
		Levels: 1, UseCylinder: true, R: 1, Cylinders: 100,
	}, DispatcherConfig{Mode: FullyPreemptive}, 0)
	// Head 90 -> 10 counts as 20 forward (wrap), never -80.
	s.Add(&Request{ID: 1, Cylinder: 50}, 0, 90)
	if s.progress != 90 { // first observation from initial head 0
		t.Fatalf("progress = %d after first observation, want 90", s.progress)
	}
	s.Add(&Request{ID: 2, Cylinder: 50}, 0, 10)
	if s.progress != 110 {
		t.Errorf("progress = %d, want 110 (wrap counts forward)", s.progress)
	}
}

// TestCascadeStageOrderMatters: the same inputs through (priority-major)
// f=0 and (deadline-major) f=inf produce genuinely different orders —
// a sanity check that the balance knob is live end to end.
func TestCascadeStageOrderMatters(t *testing.T) {
	mk := func(f float64) *Scheduler {
		return MustScheduler("x", EncapsulatorConfig{
			Levels: 8, UseDeadline: true, F: f, DeadlineHorizon: 1_000_000,
		}, DispatcherConfig{Mode: FullyPreemptive}, 0)
	}
	reqs := []*Request{
		{ID: 1, Priorities: []int{7}, Deadline: 100_000},
		{ID: 2, Priorities: []int{0}, Deadline: 900_000},
	}
	p := mk(0)
	d := EmulateEDF()
	for _, r := range reqs {
		p.Add(r, 0, 0)
		d.Add(r, 0, 0)
	}
	if p.Next(0, 0).ID != 2 {
		t.Error("f=0 should serve the high-priority request first")
	}
	if d.Next(0, 0).ID != 1 {
		t.Error("EDF should serve the tight deadline first")
	}
}

func TestWeightedSumOverflowRejected(t *testing.T) {
	_, err := NewEncapsulator(EncapsulatorConfig{
		Levels: 8, UseDeadline: true, F: 1e12,
		DeadlineHorizon: 1 << 40, DeadlineSpan: 1,
	})
	if err == nil {
		t.Error("expected overflow rejection for extreme F and span ratio")
	}
}

// testCascade is the default cascade of schedsim and the dispatch-order
// golden: hilbert SFC1, f 1 over a 700 ms slack horizon, R 3,
// conditionally preemptive at w 5 % with SP.
var testCascade = Cascade{Name: "cascaded", Curve: "hilbert", Dims: 2, Levels: 8,
	F: 1, Horizon: 700_000, Slack: true, R: 3, Mode: ConditionallyPreemptive, Window: 0.05, SP: true}

// Build rejects a configuration it would otherwise build wrong: a level
// count past MaxLevels would reach sfc.New truncated to 32 bits, and a
// negative horizon or R would silently turn its stage off.
func TestCascadeBuildRejects(t *testing.T) {
	cases := []struct {
		name   string
		change func(*Cascade)
		want   string
	}{
		{"zero levels", func(c *Cascade) { c.Levels = 0 }, "core: Levels must be in [1, 65536], got 0"},
		{"levels past MaxLevels", func(c *Cascade) { c.Levels = MaxLevels + 1 }, "core: Levels must be in [1, 65536], got 65537"},
		{"levels that wrap a curve side", func(c *Cascade) { c.Levels = 1<<32 + 4 }, "core: Levels must be in [1, 65536], got 4294967300"},
		{"negative horizon", func(c *Cascade) { c.Horizon = -1 }, "core: Horizon must not be negative (0 skips the deadline stage), got -1"},
		{"negative R", func(c *Cascade) { c.R = -1 }, "core: R must not be negative (0 skips the seek stage), got -1"},
		{"unknown curve", func(c *Cascade) { c.Curve = "bogus" }, `sfc: unknown curve "bogus"`},
		{"unknown plane", func(c *Cascade) { c.Plane = "bogus" }, `sfc: unknown curve "bogus"`},
		{"window past 1", func(c *Cascade) { c.Window = 2 }, "core: window fraction 2 outside [0,1]"},
		{"span past the horizon", func(c *Cascade) { c.Span = c.Horizon + 1 }, "core: DeadlineSpan 700001 outside [0, DeadlineHorizon]"},
	}
	for _, tc := range cases {
		c := testCascade
		tc.change(&c)
		if _, err := c.Build(3832); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: Build = %v, want %s", tc.name, err, tc.want)
		}
	}
}

// Build hands the cylinder count to the scheduler only with the seek
// stage on; without it the scheduler keeps no sweep timeline.
func TestCascadeBuildTimelineOnlyWithSeekStage(t *testing.T) {
	for r, want := range map[int]int{0: 0, 3: 3832} {
		c := testCascade
		c.R = r
		s, err := c.Build(3832)
		if err != nil {
			t.Fatal(err)
		}
		if s.cylinders != want {
			t.Errorf("R %d: timeline over %d cylinders, want %d", r, s.cylinders, want)
		}
	}
}

// With the seek stage on, stage 3 places each arrival on the absolute
// sweep timeline, at or past the head's progress. While the queue never
// drains, the request in service sits there too, so no arrival preempts
// it whatever the blocking window, and only SP promotions reorder the
// queue: schedsim's defaults (R 3, w 2 %, SP on, an overloaded disk) run
// this way. Once the queue drains, the dispatcher may serve a request its
// partition deferred by whole sweeps before the head has made them, and
// arrivals nearer on the timeline preempt it. With the stage off,
// arrivals preempt in both regimes.
func TestSeekStagePreemptsOnlyWhenTheQueueDrains(t *testing.T) {
	for _, c := range []struct {
		pNext    float64 // share of steps that call Next: 0.4 never drains the queue
		r        int
		window   float64
		sp       bool
		preempts bool
	}{
		{0.4, 3, 0, false, false}, {0.4, 3, 0.05, false, false}, {0.4, 3, 0.02, true, false},
		{0.4, 0, 0, false, true}, {0.4, 0, 0.05, false, true},
		{0.6, 3, 0.05, false, true},
	} {
		s, err := Cascade{
			Name: "c", Curve: "hilbert", Dims: 2, Levels: 8, F: 1, Horizon: 700_000, Slack: true,
			R: c.r, Mode: ConditionallyPreemptive, Window: c.window, SP: c.sp,
		}.Build(3832)
		if err != nil {
			t.Fatal(err)
		}
		m := new(Metrics)
		s.SetMetrics(m)
		rng := stats.NewRNG(55)
		now, head := int64(0), 0
		next := func() bool {
			r := s.Next(now, head)
			if r != nil {
				head = r.Cylinder
			}
			return r != nil
		}
		for id := uint64(1); id <= 400; {
			now += int64(rng.Uint64n(4_000))
			if rng.Float64() < c.pNext {
				next()
				continue
			}
			s.Add(&Request{
				ID: id, Arrival: now, Cylinder: 300 * rng.Intn(12), Size: 16 << 10,
				Priorities: []int{rng.Intn(8), rng.Intn(8)}, Deadline: now + 100_000 + int64(rng.Intn(600_000)),
			}, now, head)
			id++
		}
		for next() {
		}
		if got := m.Preemptions.Load(); (got > 0) != c.preempts {
			t.Errorf("Next share %v, R %d, w %v, SP %v: %d preemptions, want some: %v",
				c.pNext, c.r, c.window, c.sp, got, c.preempts)
		}
	}
}
