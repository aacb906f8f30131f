package core

import (
	"testing"

	"sfcsched/internal/sfc"
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
	v0 := e.Value(&Request{Priorities: []int{0}, Cylinder: 99}, 0, 0)
	v4 := e.Value(&Request{Priorities: []int{7}, Cylinder: 0}, 0, 0)
	if v0 >= v4 {
		t.Errorf("partition precedence broken: %d >= %d", v0, v4)
	}
}

func TestCascadeWindowFractionWithCylinderStage(t *testing.T) {
	s := MustScheduler("w", EncapsulatorConfig{
		Levels: 8, UseCylinder: true, R: 4, Cylinders: 1000,
	}, DispatcherConfig{Mode: ConditionallyPreemptive}, 0.1)
	want := uint64(0.1 * float64(s.v.(*Encapsulator).MaxValue()))
	if got := s.Dispatcher().Window(); got != want {
		t.Errorf("window = %d, want %d (10%% of one sweep cycle)", got, want)
	}
}

func TestShortPriorityVectorPadsWithHighest(t *testing.T) {
	// A request carrying fewer priority dimensions than the curve is
	// padded with level 0 (highest) in the missing dimensions.
	e := MustEncapsulator(EncapsulatorConfig{
		Curve1: sfc.MustNew("sweep", 3, 8), Levels: 8,
	})
	short := e.Value(&Request{Priorities: []int{3}}, 0, 0)
	full := e.Value(&Request{Priorities: []int{3, 0, 0}}, 0, 0)
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
		v := e.Value(&Request{Priorities: []int{l}}, 0, 0)
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
	mk := func(f float64, tie TiePolicy) *Scheduler {
		return MustScheduler("x", EncapsulatorConfig{
			Levels: 8, UseDeadline: true, F: f, Tie: tie, DeadlineHorizon: 1_000_000,
		}, DispatcherConfig{Mode: FullyPreemptive}, 0)
	}
	reqs := []*Request{
		{ID: 1, Priorities: []int{7}, Deadline: 100_000},
		{ID: 2, Priorities: []int{0}, Deadline: 900_000},
	}
	p := mk(0, TieDeadline)
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
