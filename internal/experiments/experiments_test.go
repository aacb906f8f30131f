package experiments

import (
	"bytes"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Shape tests: the paper's qualitative claims, as EXPERIMENTS.md's
// "Shape ✓" sentences state them, checked against the committed goldens —
// the rows' output at their defaults, which
// TestRegistryGoldenAndWorkerInvariant holds the code to. Absolute values
// are not checked — the substrate is a simulator — but orderings, rough
// factors and crossovers must hold.

// expect records a failed claim.
func expect(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	if !ok {
		t.Errorf(format, args...)
	}
}

func series(t *testing.T, r *Result, name string) []float64 {
	t.Helper()
	for _, s := range r.Series {
		if s.Name == name {
			return s.Y
		}
	}
	t.Fatalf("%s: no series %q", r.ID, name)
	return nil
}

// at returns the index of x on r's axis.
func at(t *testing.T, r *Result, x float64) int {
	t.Helper()
	for i, v := range r.X {
		if v == x {
			return i
		}
	}
	t.Fatalf("%s: no x = %v", r.ID, x)
	return -1
}

func total(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum
}

func mean(vs []float64) float64 { return total(vs) / float64(len(vs)) }

// lowest reports whether ys[i] is the lowest of every series of r at i.
func lowest(r *Result, ys []float64, i int) bool {
	for _, s := range r.Series {
		if s.Y[i] < ys[i] {
			return false
		}
	}
	return true
}

// rising reports whether ys rises at every step from index from on.
func rising(ys []float64, from int) bool {
	for i := from + 1; i < len(ys); i++ {
		if ys[i] <= ys[i-1] {
			return false
		}
	}
	return true
}

func TestFig5Shape(t *testing.T) {
	res := goldenResults(t, "fig5")[0]
	expect(t, len(res.Series) == 7, "want 7 curves, got %d", len(res.Series))
	peano, sweep := series(t, res, "peano"), series(t, res, "sweep")
	gray, hilbert := series(t, res, "gray"), series(t, res, "hilbert")
	for i, w := range res.X {
		// Small windows: Peano lowest, 5-10 points below sweep; Gray and
		// Hilbert 34+ points above it (§5.1). Large windows: sweep lowest.
		if d := sweep[i] - peano[i]; w <= 10 {
			expect(t, lowest(res, peano, i) && d >= 5 && d <= 10.5, "w=%v: peano %.1f not lowest, 5-10 below sweep %.1f", w, peano[i], sweep[i])
			expect(t, min(gray[i], hilbert[i]) >= sweep[i]+34, "w=%v: gray %.1f / hilbert %.1f not 34+ above sweep %.1f", w, gray[i], hilbert[i], sweep[i])
		}
		expect(t, w < 40 || lowest(res, sweep, i), "w=%v: sweep %.1f is not the lowest curve", w, sweep[i])
	}
	for _, s := range res.Series {
		expect(t, s.Y[0] < 130, "%s at w=0: %.1f%% of FIFO seems wrong", s.Name, s.Y[0])
	}
}

func TestFig6Shape(t *testing.T) {
	res := goldenResults(t, "fig6")[0]
	// All seven curves run at every dimensionality up to 12 — the
	// scalability claim is that nothing breaks or blows up. At one
	// dimension a lexicographic curve is the priority order itself, so 0 is
	// right there; from two on, Peano is the lowest and Gray/Hilbert stay
	// above FIFO.
	expect(t, len(res.Series) == 7, "want 7 curves, got %d", len(res.Series))
	peano, gray, hilbert := series(t, res, "peano"), series(t, res, "gray"), series(t, res, "hilbert")
	for i, d := range res.X {
		for _, s := range res.Series {
			expect(t, s.Y[i] >= 0 && s.Y[i] <= 400 && (d < 2 || s.Y[i] > 0), "%s at dims=%v: %.1f%% of FIFO out of range", s.Name, d, s.Y[i])
		}
		expect(t, d < 2 || lowest(res, peano, i), "dims=%v: peano %.1f is not the lowest curve", d, peano[i])
		expect(t, d < 2 || min(gray[i], hilbert[i]) > 100, "dims=%v: gray %.1f / hilbert %.1f at or below FIFO", d, gray[i], hilbert[i])
	}
	// The lexicographic curves and spiral bunch together at 12 dimensions.
	for _, name := range []string{"sweep", "cscan", "scan", "spiral"} {
		v := series(t, res, name)[at(t, res, 12)]
		expect(t, v >= 89 && v <= 93, "%s at 12 dims: %.1f%%, want 89-93", name, v)
	}
}

func TestFig7Shape(t *testing.T) {
	rs := goldenResults(t, "fig7")
	a, b := rs[0], rs[1]
	hil, spiral, peano := series(t, a, "hilbert"), series(t, a, "spiral"), series(t, a, "peano")
	for i, w := range a.X {
		// (a) Hilbert is fairer than the lexicographic curves at every
		// window. Peano and spiral are the two fairest at small windows;
		// spiral alone from 5% on, at a stddev of at most 4 from 40%.
		for _, s := range a.Series {
			lex := s.Name == "sweep" || s.Name == "cscan" || s.Name == "scan"
			expect(t, !lex || hil[i] < s.Y[i], "w=%v: hilbert stddev %.2f not below %s %.2f", w, hil[i], s.Name, s.Y[i])
			pair := s.Name == "peano" || s.Name == "spiral"
			expect(t, w > 2 || pair || s.Y[i] > max(peano[i], spiral[i]), "w=%v: %s stddev %.2f not above peano and spiral", w, s.Name, s.Y[i])
		}
		expect(t, w < 5 || lowest(a, spiral, i), "w=%v: spiral stddev %.2f is not the lowest", w, spiral[i])
		expect(t, w < 40 || spiral[i] <= 4, "w=%v: spiral stddev %.2f, want at most 4", w, spiral[i])
	}
	// (b) The lexicographic curves own the best favored dimension: free
	// of inversions at w = 0 and below 1% through 5%, while Gray and
	// Hilbert never drop below 46%.
	for _, name := range []string{"sweep", "cscan", "scan"} {
		fav := series(t, b, name)
		expect(t, fav[0] == 0 && fav[at(t, b, 5)] < 1, "%s favored dimension %v, want 0 at w=0 and below 1 at w=5", name, fav)
	}
	for _, name := range []string{"gray", "hilbert"} {
		fav := series(t, b, name)
		expect(t, slices.Min(fav) >= 46, "%s favored dimension %v, want at least 46", name, fav)
	}
	favSweep, favHil := series(t, b, "sweep"), series(t, b, "hilbert")
	expect(t, mean(favSweep) < mean(favHil), "sweep favored dim %.2f should beat hilbert %.2f", mean(favSweep), mean(favHil))
}

func TestFig8Shape(t *testing.T) {
	rs := goldenResults(t, "fig8")
	a, b := rs[0], rs[1]
	f0, f1, f8 := at(t, a, 0), at(t, a, 1), at(t, a, 8)
	for _, curve := range stage2Curves {
		inv, miss := series(t, a, curve), series(t, b, curve)
		// Growing f trades the two toward EDF: misses never rise, and
		// inversions rise at every step from f = 0.25 on. f = 0 minimizes
		// inversion at a large miss cost.
		for i := 1; i < len(miss); i++ {
			expect(t, miss[i] <= miss[i-1], "%s: misses rise with f: %v", curve, miss)
		}
		expect(t, rising(inv, 1), "%s: inversions do not rise from f=0.25 on: %v", curve, inv)
		expect(t, inv[f0] < inv[f1] && inv[f1] < inv[f8], "%s: inversions should rise over f = 0, 1, 8: %v", curve, inv)
		expect(t, miss[f0] > miss[f1] && miss[f1] > miss[f8], "%s: misses should fall over f = 0, 1, 8: %v", curve, miss)
		expect(t, miss[f0] >= 200 && miss[f8] <= 200, "%s: misses %.0f%% of EDF at f=0, %.0f%% at f=8", curve, miss[f0], miss[f8])
		expect(t, inv[f0] <= 70, "%s: f=0 inversion %.0f%% of EDF, want well below EDF", curve, inv[f0])
	}
}

// uniform reports whether misses spread over every level within a factor
// of six, as EDF's do.
func uniform(ys []float64) bool {
	lo, hi := slices.Min(ys), slices.Max(ys)
	return lo > 0 && hi/lo <= 6
}

func TestFig9Shape(t *testing.T) {
	rs := goldenResults(t, "fig9")
	if len(rs) != stage2Dims {
		t.Fatalf("want %d per-dimension results, got %d", stage2Dims, len(rs))
	}
	for k, r := range rs {
		edf, sw := series(t, r, "edf"), series(t, r, "sweep")
		peano, hil := series(t, r, "peano"), series(t, r, "hilbert")
		// EDF scatters misses roughly uniformly over levels in every
		// dimension, and so do sweep outside its favored (last) dimension
		// and Peano in the first.
		expect(t, uniform(edf), "%s: EDF misses not roughly uniform: %v", r.ID, edf)
		expect(t, k == 2 || uniform(sw), "%s: sweep misses not EDF-like: %v", r.ID, sw)
		expect(t, k > 0 || uniform(peano), "%s: peano misses not EDF-like: %v", r.ID, peano)
		// Sweep's top five levels in its favored dimension see no misses
		// and the two lowest absorb 95%+; Peano protects dimensions 2 and 3.
		expect(t, k < 2 || total(sw[:5]) == 0 && total(sw[6:]) >= 0.95*total(sw), "%s: sweep selectivity: %v", r.ID, sw)
		expect(t, k == 0 || total(peano[:3]) < total(peano[6:])/2, "%s: peano does not protect the top levels: %v", r.ID, peano)
		// Hilbert protects dimension 3 but inverts selectivity in 1-2:
		// more misses in the upper half of the levels than the lower.
		expect(t, k == 2 || total(hil[:4]) > total(hil[4:]), "%s: hilbert selectivity not inverted: %v", r.ID, hil)
		expect(t, k < 2 || total(hil[:4]) == 0, "%s: hilbert does not protect the top levels: %v", r.ID, hil)
	}
}

func TestFig10Shape(t *testing.T) {
	rs := goldenResults(t, "fig10")
	inv, miss, seek := series(t, rs[0], "cascaded"), series(t, rs[1], "cascaded"), series(t, rs[2], "cascaded")
	seekCSCAN, missEDF, seekEDF := series(t, rs[2], "cscan")[0], series(t, rs[1], "edf")[0], series(t, rs[2], "edf")[0]
	r1, r3 := at(t, rs[0], 1), at(t, rs[0], 3)
	// R = 1 degenerates to one pure scan: C-SCAN's seek, misses and
	// inversions.
	expect(t, seek[r1] == seekCSCAN && inv[r1] == 100 && miss[r1] >= 0.98 && miss[r1] <= 1.02,
		"R=1 seek %.2f, inversions %.1f%%, misses %.3fx: want C-SCAN's", seek[r1], inv[r1], miss[r1])
	for i, r := range rs[0].X {
		// Misses are U-shaped with the minimum at R = 3, below C-SCAN
		// exactly for R in [2, 6], below EDF everywhere; inversions below
		// C-SCAN for R > 1; seek between C-SCAN's and EDF's.
		expect(t, lowest(rs[1], miss, r3) && miss[i] < missEDF, "R=%v misses %.3f: R=3 not the minimum or EDF beaten", r, miss[i])
		expect(t, r < 2 || (miss[i] < 1) == (r <= 6), "R=%v misses %.3fx C-SCAN: below 1 exactly for R in [2,6]", r, miss[i])
		expect(t, r < 2 || inv[i] < 100, "R=%v inversions %.1f%% of C-SCAN, want below 100", r, inv[i])
		expect(t, r < 2 || seek[i] > seekCSCAN && seek[i] <= seekEDF, "R=%v seek %.2f outside (C-SCAN %.2f, EDF %.2f]", r, seek[i], seekCSCAN, seekEDF)
	}
	expect(t, rising(seek, r3), "seek %v does not rise from R=3 on", seek)
}

func TestFig11Shape(t *testing.T) {
	res := goldenResults(t, "fig11")[0]
	fcfs, sweepX, sweepY := series(t, res, "fcfs"), series(t, res, "sweep-x"), series(t, res, "sweep-y")
	peano, diag := series(t, res, "peano"), series(t, res, "diagonal")
	hilbert, moore := series(t, res, "hilbert"), series(t, res, "moore")
	last := len(res.X) - 1
	gap := make([]float64, len(res.X))
	for i, u := range res.X {
		// Losses grow with load; FCFS is the worst classical policy and the
		// open Hilbert the worst scheduler above the lossless 68 users.
		for _, s := range res.Series {
			expect(t, i == 0 || s.Y[i] >= s.Y[i-1], "%s: losses should grow with load: %v", s.Name, s.Y)
			expect(t, u == 68 || s.Y[i] <= hilbert[i], "%v users: %s %.2f worse than hilbert", u, s.Name, s.Y[i])
		}
		expect(t, fcfs[i] >= max(sweepX[i], sweepY[i]), "%v users: fcfs %.2f beats a sweep", u, fcfs[i])
		// Diagonal and Peano beat Sweep-X at the two heaviest loads, and
		// Diagonal overtakes Sweep-Y there.
		expect(t, i < last-1 || diag[i] < sweepY[i] && peano[i] < sweepX[i], "%v users: diagonal %.2f / peano %.2f behind the sweeps", u, diag[i], peano[i])
		gap[i] = sweepX[i] - diag[i]
	}
	// Diagonal's lead over Sweep-X widens at every step from 76 users.
	from := at(t, res, 76)
	expect(t, gap[from] > 0 && rising(gap, from), "diagonal's lead over sweep-x %v does not widen from 76 users", gap)
	// Under heavy load the priority-aware curves beat FCFS on weighted cost.
	expect(t, max(sweepY[last], peano[last], diag[last]) < fcfs[last], "sweep-y/peano/diagonal should beat fcfs at peak load")
	// Closing the Hilbert loop cures the open curve's endpoint pathology
	// (EXPERIMENTS.md): Moore well below Hilbert at peak load.
	expect(t, moore[last] < hilbert[last]*0.8, "moore %.2f should be well below open hilbert %.2f", moore[last], hilbert[last])
}

func TestFig11RAIDShape(t *testing.T) {
	res := goldenResults(t, "fig11raid")[0]
	fcfs, sweepX, sweepY := series(t, res, "fcfs"), series(t, res, "sweep-x"), series(t, res, "sweep-y")
	diag, moore, hilbert := series(t, res, "diagonal"), series(t, res, "moore"), series(t, res, "hilbert")
	last := len(res.X) - 1
	// FCFS is 2.5-7.5x worse than every SFC scheduler at light load.
	for _, s := range res.Series[1:] {
		f := fcfs[0] / s.Y[0]
		expect(t, f >= 2.5 && f <= 7.5, "fcfs is %.1fx %s at 68 users, want 2.5-7.5x", f, s.Name)
	}
	for i, u := range res.X {
		// FCFS stays the worst classical policy through 80 users. From 84
		// on Sweep-Y, Diagonal and Moore share the lead and the open
		// Hilbert is the worst.
		expect(t, u > 80 || fcfs[i] >= max(sweepX[i], sweepY[i]), "%v users: fcfs %.2f beats a sweep", u, fcfs[i])
		for _, s := range res.Series {
			lead := s.Name == "sweep-y" || s.Name == "diagonal" || s.Name == "moore"
			expect(t, u < 84 || lead || s.Y[i] > max(sweepY[i], diag[i], moore[i]), "%v users: %s %.2f ranks among the leaders", u, s.Name, s.Y[i])
			expect(t, u < 84 || s.Y[i] <= hilbert[i], "%v users: %s %.2f worse than hilbert", u, s.Name, s.Y[i])
		}
	}
	expect(t, max(moore[last], diag[last]) < fcfs[last], "moore / diagonal should beat fcfs at 91 users")
	expect(t, moore[last] < hilbert[last]*0.8, "moore %.2f should be well below open hilbert %.2f", moore[last], hilbert[last])
}

func TestTable1Renders(t *testing.T) {
	out := string(golden(t, "table1"))
	for _, want := range []string{"3832", "7200 RPM", "4 data + 1 parity", "18.0 ms", "8.50 ms (calibrated)"} {
		expect(t, strings.Contains(out, want), "table1 output missing %q:\n%s", want, out)
	}
}

func TestResultRenderAndValidation(t *testing.T) {
	r := &Result{ID: "x", Title: "t", XLabel: "n", X: []float64{1, 2}}
	if err := r.AddSeries("ok", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	expect(t, r.AddSeries("bad", []float64{1}) != nil, "expected length-mismatch error")
	var buf bytes.Buffer
	r.Notes = append(r.Notes, "hello")
	r.Render(&buf)
	out := buf.String()
	expect(t, strings.Contains(out, "ok") && strings.Contains(out, "note: hello"), "render output wrong:\n%s", out)
}

// ablationRow returns the leading number of each cell of the ablation
// table row labelled label (">= 512 (stream length)" reads as 512).
func ablationRow(t *testing.T, text, label string) []float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		cells := regexp.MustCompile(`\s{2,}`).Split(strings.TrimSpace(line), -1)
		if cells[0] != label {
			continue
		}
		vs := make([]float64, len(cells)-1)
		for i, c := range cells[1:] {
			var err error
			if vs[i], err = strconv.ParseFloat(strings.Fields(strings.TrimPrefix(c, ">= "))[0], 64); err != nil {
				t.Fatalf("ablations row %q: %v", label, err)
			}
		}
		return vs
	}
	t.Fatalf("ablations: no row %q", label)
	return nil
}

func TestAblationsRender(t *testing.T) {
	out := string(golden(t, "ablations"))
	row := func(label string) float64 { return ablationRow(t, out, label)[0] }
	for _, want := range []string{"deadline axis", "Serve-and-Promote", "Expand-and-Reset", "blocking window", "three-stage cascade"} {
		expect(t, strings.Contains(out, want), "ablations output missing %q", want)
	}
	// The absolute deadline axis misses 5x+ less than slack at enqueue,
	// SP cuts inversions, and ER serves the blocked request within a few
	// dispatches where without it the request waits out the stream.
	expect(t, 5*row("absolute (default)") < row("slack at enqueue"), "deadline axis: absolute not 5x+ fewer misses")
	expect(t, row("SP on") < row("SP off"), "SP does not cut inversions")
	expect(t, row("ER on (e=2)") <= 8 && row("ER off") == 512, "ER on waits %v dispatches, off %v", row("ER on (e=2)"), row("ER off"))
	// Preemption pressure falls as the window grows.
	windows := []string{"0%", "2%", "5%", "20%", "50%"}
	for i := 1; i < len(windows); i++ {
		expect(t, row(windows[i]) < row(windows[i-1]), "preemptions+promotions do not fall from window %s to %s", windows[i-1], windows[i])
	}
	// The cascade beats the single (D+2)-dim curve on misses, inversions
	// and seek.
	c, s := ablationRow(t, out, "cascaded"), ablationRow(t, out, "single-hilbert")
	expect(t, c[0] < s[0] && c[1] < s[1] && c[2] < s[2], "cascaded %v does not beat single %v on every column", c, s)
}
