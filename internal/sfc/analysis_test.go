package sfc

import "testing"

func analyze(t *testing.T, name string, dims int, side uint32) *Analysis {
	t.Helper()
	a, err := Analyze(MustNew(name, dims, side))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestContinuousCurvesHaveNoJumps(t *testing.T) {
	for _, name := range []string{"scan", "peano", "hilbert"} {
		a := analyze(t, name, 3, 8)
		if a.Jumps != 0 {
			t.Errorf("%s: %d jumps, want 0", name, a.Jumps)
		}
		if a.MeanStep != 1 || a.MaxStep != 1 {
			t.Errorf("%s: step stats %v/%v, want 1/1", name, a.MeanStep, a.MaxStep)
		}
	}
	if a := analyze(t, "spiral", 2, 9); a.Jumps != 0 {
		t.Errorf("2-D spiral: %d jumps, want 0", a.Jumps)
	}
}

func TestDiscontinuousCurvesJump(t *testing.T) {
	for _, name := range []string{"sweep", "cscan", "gray", "zorder"} {
		a := analyze(t, name, 2, 8)
		if a.Jumps == 0 {
			t.Errorf("%s should have jumps", name)
		}
	}
}

func TestSweepNeverBackwardInMajorDimension(t *testing.T) {
	for _, name := range []string{"sweep", "scan", "cscan"} {
		a := analyze(t, name, 3, 8)
		last := len(a.IrregularityPerDim) - 1
		if a.IrregularityPerDim[last] != 0 {
			t.Errorf("%s: %d backward steps in major dimension, want 0",
				name, a.IrregularityPerDim[last])
		}
		// ... at the cost of many backward steps in the minor dimensions.
		if a.IrregularityPerDim[0] == 0 {
			t.Errorf("%s: minor dimension should absorb irregularity", name)
		}
	}
}

// TestPairInversionsPredictFig5 ties the static analysis to the Fig. 5
// ranking where the global measure is predictive: Gray and Hilbert carry
// the highest pair-inversion rates, Peano sits below them, and the
// lexicographic curves are lowest. (Dynamically Peano beats even the
// lexicographic curves, because a running scheduler only compares
// co-pending requests near the serving frontier, where Peano's serpentine
// is locally order-respecting — the global Kendall-style measure cannot
// see that.)
func TestPairInversionsPredictFig5(t *testing.T) {
	rate := func(name string, side uint32) float64 {
		return analyze(t, name, 3, side).PairInversionRate()
	}
	peano := rate("peano", 9)
	sweep := rate("sweep", 8)
	gray := rate("gray", 8)
	hilbert := rate("hilbert", 8)
	if gray <= peano || hilbert <= peano {
		t.Errorf("gray %.4f / hilbert %.4f should exceed peano %.4f", gray, hilbert, peano)
	}
	if gray <= sweep || hilbert <= sweep {
		t.Errorf("gray %.4f / hilbert %.4f should exceed sweep %.4f", gray, hilbert, sweep)
	}
}

// TestPairInversionsZeroInMajorDimension: the lexicographic curves never
// invert a pair in their most significant dimension — the Fig. 7b favored
// dimension, exactly.
func TestPairInversionsZeroInMajorDimension(t *testing.T) {
	for _, name := range []string{"sweep", "scan", "cscan"} {
		a := analyze(t, name, 3, 8)
		if got := a.PairInversionsPerDim[2]; got != 0 {
			t.Errorf("%s: %d pair inversions in major dimension, want 0", name, got)
		}
	}
}

func TestPairInversionsBruteForceAgreement(t *testing.T) {
	c := MustNew("hilbert", 2, 8)
	a, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force on the small grid.
	pts := walk(t, c)
	want := make([]uint64, 2)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			for k := 0; k < 2; k++ {
				if pts[i][k] > pts[j][k] {
					want[k]++
				}
			}
		}
	}
	for k := 0; k < 2; k++ {
		if a.PairInversionsPerDim[k] != want[k] {
			t.Errorf("dim %d: fenwick %d != brute force %d", k, a.PairInversionsPerDim[k], want[k])
		}
	}
}

// TestHilbertIrregularityBalanced mirrors Fig. 7: Hilbert spreads its
// irregularity nearly evenly over dimensions, while sweep concentrates it.
func TestHilbertIrregularityBalanced(t *testing.T) {
	h := analyze(t, "hilbert", 3, 8)
	min, max := h.IrregularityPerDim[0], h.IrregularityPerDim[0]
	for _, v := range h.IrregularityPerDim {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == 0 || float64(max)/float64(min) > 1.5 {
		t.Errorf("hilbert irregularity should be balanced, got %v", h.IrregularityPerDim)
	}
}

func TestAnalyzeBounds(t *testing.T) {
	if _, err := Analyze(MustNew("hilbert", 4, 256)); err == nil {
		t.Error("expected error for oversized grid")
	}
	if _, err := Analyze(MustNew("spiral", 3, 5)); err == nil {
		t.Error("expected error for an order-only curve")
	}
	a, err := Analyze(MustNew("sweep", 1, 1))
	if err != nil || a.Cells != 1 || a.TotalIrregularity() != 0 {
		t.Errorf("degenerate grid: %+v, err %v", a, err)
	}
}

// TestAnalyzeOneCellTakesNoStep: a one-cell walk has no step to average,
// so MeanStep reads 0 rather than 0/0.
func TestAnalyzeOneCellTakesNoStep(t *testing.T) {
	a, err := Analyze(MustNew("sweep", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanStep != 0 || a.MaxStep != 0 || a.Jumps != 0 {
		t.Errorf("one-cell grid: MeanStep %v, MaxStep %d, Jumps %d, want 0, 0, 0", a.MeanStep, a.MaxStep, a.Jumps)
	}
}
