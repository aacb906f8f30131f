package cluster

import (
	"math"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// skipUnderRace skips allocation gates under the race detector.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
}

// Run recycles its physical copies, so a run allocates a constant number
// of times however long its trace is: at n and 2n requests the counts stay
// within a few map and slice growth steps of each other. Before the free
// list every admitted request cost one allocation.
func TestRunAllocsConstantInTraceLength(t *testing.T) {
	skipUnderRace(t)
	base := Config{
		Nodes: 4, DisksPerNode: 2, Disk: testDisk(t),
		NewScheduler: func(int, int) (sched.Scheduler, error) { return sched.NewSCANEDF(50_000), nil },
		DropLate:     true, Classes: 3, Metrics: &Metrics{},
	}
	const n = 4000
	trace := workload.Open{
		Seed: 1, Count: 2 * n, MeanInterarrival: 1500,
		Dims: 1, Levels: 4,
		DeadlineMin: 50_000, DeadlineMax: 800_000,
		Cylinders: base.MaxBlocks(), Size: 64 << 10,
		Tenants: 8, TenantSkew: 1.2, Classes: 3, TenantZones: true,
	}.MustGenerate()
	allocs := func(trace []*core.Request) float64 {
		return testing.AllocsPerRun(5, func() {
			cfg := base
			cfg.Router = LeastLoaded{}
			tb, err := NewTokenBucket(3, 200, 30)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Admission = tb
			MustRun(cfg, trace)
		})
	}
	short, long := allocs(trace[:n]), allocs(trace)
	t.Logf("allocs per run: %v at %d requests, %v at %d", short, n, long, 2*n)
	if math.Abs(long-short) > 8 {
		t.Errorf("Run allocates %v at %d requests and %v at %d, want within 8", short, n, long, 2*n)
	}
}
