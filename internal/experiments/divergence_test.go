package experiments

import (
	"testing"

	"sfcsched/internal/core"
)

func TestDivergenceShape(t *testing.T) {
	rs := goldenResults(t, "divergence")
	disagree, travel := rs[0], rs[1]
	for _, res := range rs {
		expect(t, len(res.X) == len(divergenceInterarrivals) && len(res.Series) == len(divergenceShadows),
			"%s: %d load points × %d shadows", res.Title, len(res.X), len(res.Series))
	}
	// The load axis renders as offered rate, increasing.
	expect(t, rising(disagree.X, 0), "load axis not increasing: %v", disagree.X)
	w20 := series(t, disagree, "cascaded-w20")
	for i, load := range disagree.X {
		// Genuinely different policies disagree almost always, at every
		// load; scan-edf would always seek less.
		for _, name := range []string{"scan-edf", "fcfs"} {
			y := series(t, disagree, name)[i]
			expect(t, y >= 95 && y <= 100, "%s: disagreement %v%% at %v req/s, want 95-100", name, y, load)
		}
		expect(t, series(t, travel, "scan-edf")[i] < 0, "%v req/s: scan-edf travel delta not negative", load)
		// The 4x wider window disagrees less as the queue deepens, at a
		// head-travel cost inside ±1%.
		expect(t, i == 0 || w20[i] < w20[i-1], "cascaded-w20 disagreement does not fall with load: %v", w20)
		d := series(t, travel, "cascaded-w20")[i]
		expect(t, d > -1 && d < 1, "cascaded-w20 travel delta %.2f%% at %v req/s, want inside ±1", d, load)
	}
}

// The cascaded-w20 shadow must be the primary with a 4x wider blocking
// window, not the primary's twin: it was once built at the primary's own
// 5 %, so the published column measured the primary against itself.
func TestDivergenceW20ShadowIsFourTimesWider(t *testing.T) {
	primary, err := divergencePrimary()
	if err != nil {
		t.Fatal(err)
	}
	w20, err := divergenceShadows[len(divergenceShadows)-1].build()
	if err != nil {
		t.Fatal(err)
	}
	pw, sw := primary.(*core.Scheduler).Window(), w20.(*core.Scheduler).Window()
	expect(t, pw != 0 && sw >= 4*pw-4 && sw <= 4*pw+4, "cascaded-w20 window %d, want 4x the primary's %d", sw, pw)
	for i, y := range series(t, goldenResults(t, "divergence")[0], "cascaded-w20") {
		expect(t, y != 0, "cascaded-w20 never disagrees with the primary at load point %d: still its twin", i)
	}
}

func TestDivergenceIdenticalAcrossWorkers(t *testing.T) { sameAtWorkers2(t, "divergence") }
