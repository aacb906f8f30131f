package experiments

import (
	"testing"

	"sfcsched/internal/workload"
)

// The headline regression guarantee: every scenario × scheduler replays
// byte-identically on the same build, so the divergence result is all
// zeros.
func TestReplayDiffIsZeroDivergence(t *testing.T) {
	rs := goldenResults(t, "replaydiff")
	drops, diverged := rs[0], rs[1]
	if len(drops.X) != 4 || len(diverged.Series) != 3 {
		t.Fatalf("unexpected shape: %d scenarios, %d scheduler series", len(drops.X), len(diverged.Series))
	}
	for _, s := range diverged.Series {
		expect(t, total(s.Y) == 0, "scheduler %s diverged: %v", s.Name, s.Y)
	}
	// The scenarios must actually stress the schedulers differently: steady
	// state (x=0) drops under 5%, the flash crowd (x=1) and the diurnal
	// peak (x=2) overload every policy into the 40-50% range, and the mixed
	// scenario (x=3) separates scan-edf, which drops under 0.6x as much as
	// the others.
	for _, s := range drops.Series {
		expect(t, s.Y[0] < 5, "scheduler %s: steady scenario dropped %.2f%%, want under 5", s.Name, s.Y[0])
		expect(t, min(s.Y[1], s.Y[2]) >= 40 && max(s.Y[1], s.Y[2]) <= 50, "scheduler %s: flash/diurnal dropped %v, want 40-50%%", s.Name, s.Y[1:3])
	}
	mixed := series(t, drops, "scan-edf")[3]
	expect(t, mixed < 0.6*min(series(t, drops, "cascaded")[3], series(t, drops, "fcfs")[3]),
		"mixed scenario: scan-edf dropped %.2f%%, want under 0.6x the others", mixed)
}

// The scenario axis is workload.Scenarios(), one point per name, and a
// name outside that list is refused rather than run as an empty column.
func TestReplayDiffUnknownScenario(t *testing.T) {
	n, want := len(goldenResults(t, "replaydiff")[0].X), len(workload.Scenarios())
	expect(t, n == want, "replaydiff sweeps %d scenarios, workload has %d", n, want)
	_, err := workload.ScenarioSpec("bogus", 1, 600, 3832)
	expect(t, err != nil, "unknown scenario did not error")
}

func TestReplayDiffIdenticalAcrossWorkers(t *testing.T) { sameAtWorkers2(t, "replaydiff") }
