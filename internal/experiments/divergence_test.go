package experiments

import (
	"bytes"
	"testing"

	"sfcsched/internal/core"
)

// smallDivergence shrinks the default sweep for fast shape and
// determinism checks.
func smallDivergence() DivergenceConfig {
	cfg := DefaultDivergenceConfig()
	cfg.Requests = 500
	cfg.Interarrivals = []int64{24_000, 12_000, 7_000}
	return cfg
}

func TestDivergenceShape(t *testing.T) {
	disagree, travel, err := Divergence(smallDivergence())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{disagree, travel} {
		if len(res.X) != 3 {
			t.Fatalf("%s: x-axis has %d points, want 3", res.Title, len(res.X))
		}
		if len(res.Series) != 3 {
			t.Fatalf("%s: %d shadow series, want 3", res.Title, len(res.Series))
		}
		for _, s := range res.Series {
			if len(s.Y) != len(res.X) {
				t.Fatalf("%s: series %q has %d points, want %d", res.Title, s.Name, len(s.Y), len(res.X))
			}
		}
	}
	// The load axis must render as offered rate, increasing.
	for i := 1; i < len(disagree.X); i++ {
		if disagree.X[i] <= disagree.X[i-1] {
			t.Fatalf("load axis not increasing: %v", disagree.X)
		}
	}
	// Genuinely different policies must disagree under load; rates live in
	// [0, 100].
	last := len(disagree.X) - 1
	for _, name := range []string{"scan-edf", "fcfs"} {
		ys := series(t, disagree, name)
		if ys[last] <= 0 {
			t.Errorf("%s never disagreed with the primary at top load", name)
		}
		for i, y := range ys {
			if y < 0 || y > 100 {
				t.Errorf("%s: disagreement %v%% at point %d outside [0,100]", name, y, i)
			}
		}
	}
}

// The cascaded-w20 shadow must be the primary with a 4x wider blocking
// window, not the primary's twin: it was once built at the primary's own
// 5 %, so the published column measured the primary against itself.
func TestDivergenceW20ShadowIsFourTimesWider(t *testing.T) {
	cfg := smallDivergence()
	primary, err := planeCascade(cfg.Levels, cfg.DeadlineMax, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	shadows := divergenceShadows(cfg.Levels, cfg.DeadlineMax)
	w20, err := shadows[len(shadows)-1].build()
	if err != nil {
		t.Fatal(err)
	}
	pw, sw := primary.(*core.Scheduler).Window(), w20.(*core.Scheduler).Window()
	if pw == 0 || sw < 4*pw-4 || sw > 4*pw+4 {
		t.Errorf("cascaded-w20 window %d, want 4x the primary's %d", sw, pw)
	}
	disagree, _, err := Divergence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range series(t, disagree, "cascaded-w20") {
		if y == 0 {
			t.Errorf("cascaded-w20 never disagrees with the primary at load point %d: still its twin", i)
		}
	}
}

func divergenceCSV(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := smallDivergence()
	cfg.Workers = workers
	disagree, travel, err := Divergence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	disagree.RenderCSV(&buf)
	travel.RenderCSV(&buf)
	return buf.Bytes()
}

func TestDivergenceIdenticalAcrossWorkers(t *testing.T) {
	want := divergenceCSV(t, 1)
	for _, w := range []int{2, 8} {
		if got := divergenceCSV(t, w); !bytes.Equal(got, want) {
			t.Errorf("divergence CSV diverges at workers=%d:\nworkers=1:\n%s\nworkers=%d:\n%s",
				w, want, w, got)
		}
	}
}
