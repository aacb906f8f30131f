package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// Shape tests: each experiment is run at reduced scale and the paper's
// qualitative claims are asserted. Absolute values are not checked — the
// substrate is a simulator — but orderings and crossovers must hold.

// reduced returns a faster SFC1 config for tests.
func reducedSFC1() SFC1Config {
	cfg := DefaultSFC1Config()
	cfg.Requests = 1500
	return cfg
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

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(reducedSFC1(), []float64{0, 2, 5, 50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 7 {
		t.Fatalf("want 7 curves, got %d", len(res.Series))
	}
	peano := series(t, res, "peano")
	sweep := series(t, res, "sweep")
	gray := series(t, res, "gray")
	hilbert := series(t, res, "hilbert")
	// Small windows: Peano lowest; Gray and Hilbert markedly worse than
	// the lexicographic curves (the paper's §5.1 finding).
	for i := 0; i < 3; i++ {
		if peano[i] >= sweep[i] {
			t.Errorf("w=%v: peano %.1f >= sweep %.1f", res.X[i], peano[i], sweep[i])
		}
		if gray[i] <= sweep[i] || hilbert[i] <= sweep[i] {
			t.Errorf("w=%v: gray/hilbert should exceed sweep (%.1f/%.1f vs %.1f)",
				res.X[i], gray[i], hilbert[i], sweep[i])
		}
	}
	// Every curve beats FIFO (values below 100%... allow slack for noise).
	for _, s := range res.Series {
		if s.Y[0] >= 130 {
			t.Errorf("%s at w=0: %.1f%% of FIFO seems wrong", s.Name, s.Y[0])
		}
	}
}

func TestFig6Shape(t *testing.T) {
	cfg := reducedSFC1()
	res, err := Fig6(cfg, []float64{2, 4, 8, 12}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// All seven curves must run at every dimensionality up to 12 — the
	// scalability claim is that nothing breaks or blows up.
	if len(res.Series) != 7 {
		t.Fatalf("want 7 curves, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		for i, v := range s.Y {
			if v <= 0 || v > 400 {
				t.Errorf("%s at dims=%v: %.1f%% of FIFO out of plausible range", s.Name, res.X[i], v)
			}
		}
	}
	// Peano stays at or below sweep on average in high dimensions.
	peano := series(t, res, "peano")
	sweep := series(t, res, "sweep")
	if mean(peano[2:]) > mean(sweep[2:])*1.1 {
		t.Errorf("peano high-dim mean %.1f should not exceed sweep %.1f", mean(peano[2:]), mean(sweep[2:]))
	}
}

func TestFig7Shape(t *testing.T) {
	a, b, err := Fig7(reducedSFC1(), []float64{0, 2, 5, 20})
	if err != nil {
		t.Fatal(err)
	}
	// Hilbert is the fairest (lowest inversion stddev across dimensions);
	// the lexicographic curves are the least fair but own the best favored
	// dimension.
	hil := series(t, a, "hilbert")
	sw := series(t, a, "sweep")
	cs := series(t, a, "cscan")
	if mean(hil) >= mean(sw) || mean(hil) >= mean(cs) {
		t.Errorf("hilbert stddev %.2f should be below sweep %.2f and cscan %.2f",
			mean(hil), mean(sw), mean(cs))
	}
	favSweep := series(t, b, "sweep")
	favHil := series(t, b, "hilbert")
	if mean(favSweep) >= mean(favHil) {
		t.Errorf("sweep favored dim %.2f should beat hilbert %.2f", mean(favSweep), mean(favHil))
	}
	// The lexicographic curves keep their favored dimension almost free of
	// inversions at small windows.
	if favSweep[0] > 20 {
		t.Errorf("sweep favored dimension at w=0: %.1f%%, want near zero", favSweep[0])
	}
}

func TestFig8Shape(t *testing.T) {
	cfg := DefaultSFC2Config()
	cfg.Requests = 3000
	a, b, err := Fig8(cfg, []float64{0, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, curve := range cfg.Curves {
		inv := series(t, a, curve)
		miss := series(t, b, curve)
		// f = 0 minimizes inversion at a large miss cost; growing f trades
		// the two monotonically toward EDF.
		if !(inv[0] < inv[1] && inv[1] < inv[2]) {
			t.Errorf("%s: inversions should rise with f: %v", curve, inv)
		}
		if !(miss[0] > miss[1] && miss[1] > miss[2]) {
			t.Errorf("%s: misses should fall with f: %v", curve, miss)
		}
		if miss[0] < 200 {
			t.Errorf("%s: f=0 misses %.0f%% of EDF, want well above EDF", curve, miss[0])
		}
		if miss[2] > 200 {
			t.Errorf("%s: f=8 misses %.0f%% of EDF, want near EDF", curve, miss[2])
		}
		if inv[0] > 70 {
			t.Errorf("%s: f=0 inversion %.0f%% of EDF, want well below EDF", curve, inv[0])
		}
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := DefaultSFC2Config()
	cfg.Requests = 3000
	cfg.Service = 26_000 // overload: every scheduler must sacrifice
	rs, err := Fig9(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != cfg.Dims {
		t.Fatalf("want %d per-dimension results, got %d", cfg.Dims, len(rs))
	}
	// EDF scatters misses roughly uniformly over levels in every dimension.
	for _, r := range rs {
		edf := series(t, r, "edf")
		lo, hi := edf[0], edf[0]
		for _, v := range edf {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo == 0 || hi/lo > 6 {
			t.Errorf("%s: EDF misses not roughly uniform: %v", r.ID, edf)
		}
	}
	// Sweep protects its favored (most significant) dimension: top levels
	// of the last dimension see almost no misses, bottom levels absorb them.
	last := rs[len(rs)-1]
	sw := series(t, last, "sweep")
	top := sw[0] + sw[1] + sw[2]
	bottom := sw[len(sw)-1] + sw[len(sw)-2]
	if top > bottom/4 {
		t.Errorf("sweep selectivity in favored dim: top-level misses %v vs bottom %v", top, bottom)
	}
}

func TestFig10Shape(t *testing.T) {
	cfg := DefaultSFC3Config()
	cfg.Requests = 4000
	a, b, c, err := Fig10(cfg, []float64{1, 3, 16})
	if err != nil {
		t.Fatal(err)
	}
	inv := series(t, a, "cascaded")
	miss := series(t, b, "cascaded")
	seek := series(t, c, "cascaded")
	seekCSCAN := series(t, c, "cscan")[0]
	missEDF := series(t, b, "edf")[0]
	// R = 1 degenerates to one pure scan: same seek and misses as C-SCAN.
	if seek[0] != seekCSCAN {
		t.Errorf("R=1 seek %.2f != C-SCAN %.2f", seek[0], seekCSCAN)
	}
	if miss[0] < 0.98 || miss[0] > 1.02 {
		t.Errorf("R=1 misses %.3fx C-SCAN, want ~1.0", miss[0])
	}
	// R = 3 is the sweet spot: fewer misses than both baselines, fewer
	// inversions than C-SCAN.
	if miss[1] >= 1 {
		t.Errorf("R=3 misses %.3fx C-SCAN, want below 1", miss[1])
	}
	if miss[1] >= missEDF {
		t.Errorf("R=3 misses %.3f should beat EDF %.3f", miss[1], missEDF)
	}
	if inv[1] >= 100 {
		t.Errorf("R=3 inversions %.1f%% of C-SCAN, want below 100", inv[1])
	}
	// Large R abandons seek optimization: seek rises, misses rise again.
	if seek[2] <= seek[0] {
		t.Errorf("R=16 seek %.2f should exceed R=1 seek %.2f", seek[2], seek[0])
	}
	if miss[2] <= miss[1] {
		t.Errorf("R=16 misses %.3f should exceed R=3 misses %.3f", miss[2], miss[1])
	}
}

func TestFig11Shape(t *testing.T) {
	cfg := DefaultFig11Config()
	cfg.Users = []int{68, 80, 91}
	cfg.Duration = 25_000_000
	res, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfs := series(t, res, "fcfs")
	sweepY := series(t, res, "sweep-y")
	peano := series(t, res, "peano")
	diag := series(t, res, "diagonal")
	hilbert := series(t, res, "hilbert")
	moore := series(t, res, "moore")
	last := len(res.X) - 1
	// Losses grow with the number of users for every policy.
	for _, s := range res.Series {
		if s.Y[last] < s.Y[0] {
			t.Errorf("%s: losses should grow with load: %v", s.Name, s.Y)
		}
	}
	// Under heavy load the priority-aware curves beat FCFS on weighted cost.
	if sweepY[last] >= fcfs[last] {
		t.Errorf("sweep-y %.2f should beat fcfs %.2f at peak load", sweepY[last], fcfs[last])
	}
	if peano[last] >= fcfs[last] || diag[last] >= fcfs[last] {
		t.Errorf("peano %.2f / diagonal %.2f should beat fcfs %.2f at peak load",
			peano[last], diag[last], fcfs[last])
	}
	// Closing the Hilbert loop must cure the open curve's endpoint
	// pathology (EXPERIMENTS.md): Moore well below Hilbert at peak load.
	if moore[last] >= hilbert[last]*0.8 {
		t.Errorf("moore %.2f should be well below open hilbert %.2f", moore[last], hilbert[last])
	}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"3832", "7200 RPM", "4 data + 1 parity", "18.0 ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestResultRenderAndValidation(t *testing.T) {
	r := &Result{ID: "x", Title: "t", XLabel: "n", X: []float64{1, 2}}
	if err := r.AddSeries("ok", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSeries("bad", []float64{1}); err == nil {
		t.Error("expected length-mismatch error")
	}
	var buf bytes.Buffer
	r.Notes = append(r.Notes, "hello")
	r.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "ok") || !strings.Contains(out, "note: hello") {
		t.Errorf("render output wrong:\n%s", out)
	}
}

func TestFig11RAIDShape(t *testing.T) {
	cfg := DefaultFig11Config()
	cfg.Users = []int{68, 91}
	cfg.Duration = 20_000_000
	res, err := Fig11RAID(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfs := series(t, res, "fcfs")
	sweepY := series(t, res, "sweep-y")
	diag := series(t, res, "diagonal")
	moore := series(t, res, "moore")
	last := len(res.X) - 1
	// FCFS clearly worst at light load on the real array.
	if fcfs[0] <= sweepY[0] || fcfs[0] <= diag[0] {
		t.Errorf("fcfs %.3f should be worst at 68 users (sweep-y %.3f, diagonal %.3f)",
			fcfs[0], sweepY[0], diag[0])
	}
	// The balanced curves stay ahead of FCFS at peak load too.
	if moore[last] >= fcfs[last] || diag[last] >= fcfs[last] {
		t.Errorf("moore %.2f / diagonal %.2f should beat fcfs %.2f at 91 users",
			moore[last], diag[last], fcfs[last])
	}
}

func TestAblationsRender(t *testing.T) {
	var buf bytes.Buffer
	if err := Ablations(&buf, 1, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"deadline axis", "Serve-and-Promote", "Expand-and-Reset", "blocking window"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations output missing %q", want)
		}
	}
}
