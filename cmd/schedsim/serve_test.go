package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sfcsched/internal/disk"
	"sfcsched/internal/workload"
)

// serveCalib runs the -serve path for the given flags and returns its
// report.
func serveCalib(t *testing.T, args ...string) string {
	t.Helper()
	o := parse(t, args...)
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	m, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.Open{
		Seed:             o.seed,
		Count:            o.requests,
		MeanInterarrival: o.interarrival.Microseconds(),
		Dims:             o.dims,
		Levels:           o.levels,
		DeadlineMin:      o.deadlineMin.Microseconds(),
		DeadlineMax:      o.deadlineMax.Microseconds(),
		Cylinders:        m.Cylinders,
		SizeMin:          o.sizeMin,
		SizeMax:          o.sizeMax,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runServeCalib(&buf, *o, m, trace); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunServeCalibReport(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	start := time.Now()
	out := serveCalib(t, "-serve", "-requests", "80", "-dilation", "200")
	for _, want := range []string{
		"calibrate: 80 requests, dilation 200, in-flight 1, drop=true",
		"\n  sim ", "\n  live", "aligned ", "latency MAPE", "order r",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "aligned 0/") {
		t.Errorf("calibration aligned nothing:\n%s", out)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Errorf("calibration took %v; dilation should compress the run", elapsed)
	}
}

// TestServeCalibServesTheAskedPolicy pins that -serve calibrates the
// scheduler the flags describe: the simulated side is deterministic, so its
// report row must move with -window and with -sched. (It used to be the
// fully-preemptive cascade whatever was asked.)
func TestServeCalibServesTheAskedPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	simRow := func(args ...string) string {
		out := serveCalib(t, append([]string{"-serve", "-requests", "600", "-dilation", "2000"}, args...)...)
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "  sim ") {
				return line
			}
		}
		t.Fatalf("report has no sim row:\n%s", out)
		return ""
	}
	narrow, wide, scan := simRow("-window", "0"), simRow("-window", "0.9"), simRow("-sched", "scan")
	if narrow == wide {
		t.Errorf("-window does not reach the calibrated scheduler: 0 and 0.9 both simulate\n%s", narrow)
	}
	if scan == narrow {
		t.Errorf("-sched does not reach the calibrated scheduler: scan simulates\n%s", scan)
	}
}
