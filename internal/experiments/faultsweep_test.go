package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// smallFaultSweep shrinks the default sweep so the shape and determinism
// checks stay fast while still crossing the disk failure and rebuild.
func smallFaultSweep() FaultSweepConfig {
	cfg := DefaultFaultSweepConfig()
	cfg.Requests = 600
	cfg.Rates = []float64{0, 0.02, 0.08}
	cfg.FailAt = 800_000
	cfg.RebuildBlocks = 16
	cfg.RebuildInterval = 2_000
	return cfg
}

func TestFaultSweepShape(t *testing.T) {
	drops, fdrops, err := FaultSweep(smallFaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{drops, fdrops} {
		if len(res.X) != 3 {
			t.Fatalf("%s: x-axis has %d points, want 3", res.Title, len(res.X))
		}
		if len(res.Series) < 3 {
			t.Fatalf("%s: only %d schedulers, want at least 3", res.Title, len(res.Series))
		}
		for _, s := range res.Series {
			if len(s.Y) != len(res.X) {
				t.Fatalf("%s: series %q has %d points, want %d", res.Title, s.Name, len(s.Y), len(res.X))
			}
		}
	}
	// The retry traffic has to cost something: at the top rate at least one
	// scheduler must see fault-attributed drops, and every scheduler must
	// drop at least as much of the workload as it does fault-free.
	anyFaultDrop := false
	last := len(fdrops.X) - 1
	for _, s := range fdrops.Series {
		if s.Y[last] > 0 {
			anyFaultDrop = true
		}
		ds := series(t, drops, s.Name)
		if ds[last] < ds[0] {
			t.Errorf("%s: drop rate fell from %.2f%% to %.2f%% as the fault rate rose",
				s.Name, ds[0], ds[last])
		}
	}
	if !anyFaultDrop {
		t.Error("no scheduler recorded a fault-attributed drop at the top fault rate")
	}
}

func TestFaultSweepCSV(t *testing.T) {
	drops, _, err := FaultSweep(smallFaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	drops.RenderCSV(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Comment header, column header, one row per fault rate.
	if len(lines) != 2+len(drops.X) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), 2+len(drops.X), out)
	}
	if !strings.Contains(lines[1], "fault rate") || !strings.Contains(lines[1], "cascaded") {
		t.Errorf("CSV header missing columns: %q", lines[1])
	}
}
