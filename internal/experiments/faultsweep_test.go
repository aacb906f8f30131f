package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestFaultSweepShape(t *testing.T) {
	rs := goldenResults(t, "faultsweep")
	drops, fdrops := rs[0], rs[1]
	for _, res := range rs {
		expect(t, len(res.X) == len(faultRates) && len(res.Series) == len(faultPolicies),
			"%s: %d rates × %d schedulers", res.Title, len(res.X), len(res.Series))
	}
	// The retry traffic has to cost something, and not much: from rate 0
	// to the top rate every scheduler loses 1.5-2 more points of the
	// workload. Fault-attributed drops are zero without transient faults,
	// never fall as the rate rises, and at the top rate at least one
	// scheduler records some.
	last := len(drops.X) - 1
	anyFaultDrop := false
	for _, s := range fdrops.Series {
		ds := series(t, drops, s.Name)
		d := ds[last] - ds[0]
		expect(t, d >= 1.5 && d <= 2, "%s: drop rate rose %.2f points as the fault rate rose, want 1.5-2", s.Name, d)
		expect(t, s.Y[0] == 0, "%s: %v fault-attributed drops without transient faults", s.Name, s.Y[0])
		for i := 1; i < len(s.Y); i++ {
			expect(t, s.Y[i] >= s.Y[i-1], "%s: fault-attributed drops fall as the rate rises: %v", s.Name, s.Y)
		}
		anyFaultDrop = anyFaultDrop || s.Y[last] > 0
	}
	expect(t, anyFaultDrop, "no scheduler recorded a fault-attributed drop at the top fault rate")
}

func TestFaultSweepCSV(t *testing.T) {
	first, _, _ := bytes.Cut(golden(t, "faultsweep"), []byte("\n\n"))
	lines := strings.Split(string(first), "\n")
	// Comment header, column header, one row per fault rate.
	if len(lines) != 2+len(faultRates) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), 2+len(faultRates), first)
	}
	expect(t, strings.HasPrefix(lines[0], "# faultsweep: "), "CSV comment header %q", lines[0])
	expect(t, strings.HasPrefix(lines[1], "fault rate,cascaded,"), "CSV header missing columns: %q", lines[1])
}
