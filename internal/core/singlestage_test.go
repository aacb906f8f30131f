package core

import (
	"testing"
)

func TestSingleStageValidation(t *testing.T) {
	if _, err := NewSingleStage("hilbert", -1, 8, 0, 0); err == nil {
		t.Error("expected error for negative dims")
	}
	if _, err := NewSingleStage("hilbert", 0, 8, 0, 0); err == nil {
		t.Error("expected error for zero axes")
	}
	if _, err := NewSingleStage("nope", 2, 8, 0, 0); err == nil {
		t.Error("expected error for unknown curve")
	}
}

func TestSingleStageAxisLayout(t *testing.T) {
	ss, err := NewSingleStage("sweep", 2, 8, 1_000_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ss.curve.Dims() != 4 {
		t.Fatalf("want 4 axes (2 priorities + deadline + cylinder), got %d", ss.curve.Dims())
	}
	// Sweep is lexicographic with the LAST axis most significant, which
	// for this layout is the cylinder: two requests differing only in
	// cylinder order by scan position.
	near := ss.Value(&Request{Priorities: []int{7, 7}, Deadline: 900_000, Cylinder: 10}, 0, 0)
	far := ss.Value(&Request{Priorities: []int{0, 0}, Deadline: 100_000, Cylinder: 990}, 0, 0)
	if near >= far {
		t.Errorf("sweep single-stage should be cylinder-major: %d >= %d", near, far)
	}
	if near >= ss.curve.MaxIndex() || far >= ss.curve.MaxIndex() {
		t.Error("values exceed the curve's index space")
	}
}

func TestSingleStageDeadlineClamping(t *testing.T) {
	ss, err := NewSingleStage("hilbert", 1, 8, 500_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	past := ss.Value(&Request{Priorities: []int{3}, Deadline: -5}, 0, 0)
	zero := ss.Value(&Request{Priorities: []int{3}, Deadline: 1}, 0, 0)
	if past != zero {
		t.Error("negative deadline should clamp to the axis origin")
	}
	none := ss.Value(&Request{Priorities: []int{3}}, 0, 0)
	horizon := ss.Value(&Request{Priorities: []int{3}, Deadline: 500_000}, 0, 0)
	if none != horizon {
		t.Error("missing deadline should map to the horizon")
	}
}

func TestSingleStageSchedulerRuns(t *testing.T) {
	s, err := NewSingleStageScheduler("", "hilbert", 2, 8, 1_000_000, 3832,
		DispatcherConfig{Mode: FullyPreemptive})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "single-hilbert" {
		t.Errorf("name = %q", s.Name())
	}
	for i := uint64(1); i <= 20; i++ {
		s.Add(&Request{ID: i, Priorities: []int{int(i % 8), int(i % 3)},
			Deadline: int64(i) * 10_000, Cylinder: int(i * 100)}, 0, 0)
	}
	seen := 0
	for r := s.Next(0, 0); r != nil; r = s.Next(0, 0) {
		seen++
	}
	if seen != 20 {
		t.Errorf("dispatched %d of 20", seen)
	}
}

// TestCascadeBeatsSingleStage is the motivating comparison: under the same
// workload, the cascaded design meets more deadlines than the one-curve
// design at comparable priority fidelity, because only the cascade can
// give the deadline axis EDF-like semantics.
func TestCascadeBeatsSingleStage(t *testing.T) {
	// Direct value-ordering check on a static queue: the cascade with
	// f -> large orders tight deadlines first, while a hilbert single
	// stage interleaves them at the curve's mercy.
	cascade := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseDeadline: true, F: 8, DeadlineHorizon: 1_000_000, DeadlineSpan: 700_000,
	})
	ss, err := NewSingleStage("hilbert", 1, 8, 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	violationsCascade, violationsSingle := 0, 0
	for lvl := 0; lvl < 8; lvl++ {
		for d1 := int64(20_000); d1 < 1_000_000; d1 += 90_000 {
			for d2 := d1 + 30_000; d2 < 1_000_000; d2 += 90_000 {
				urgent := &Request{Priorities: []int{lvl}, Deadline: d1}
				relaxed := &Request{Priorities: []int{lvl}, Deadline: d2}
				if cascade.Value(urgent, 0, 0) > cascade.Value(relaxed, 0, 0) {
					violationsCascade++
				}
				if ss.Value(urgent, 0, 0) > ss.Value(relaxed, 0, 0) {
					violationsSingle++
				}
			}
		}
	}
	if violationsCascade != 0 {
		t.Errorf("cascade inverted %d same-priority deadline pairs", violationsCascade)
	}
	if violationsSingle == 0 {
		t.Error("hilbert single stage unexpectedly deadline-perfect; the cascade would be unmotivated")
	}
}
