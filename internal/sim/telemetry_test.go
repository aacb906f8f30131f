package sim

import (
	"bytes"
	"strings"
	"testing"

	"sfcsched/internal/sched"
)

func runTelemetry(t *testing.T, seed uint64) *Telemetry {
	t.Helper()
	tel := NewTelemetry(50_000)
	tel.SetMetrics(&DecisionMetrics{})
	MustRun(Config{
		Disk: xp(), Scheduler: cascadedScheduler(),
		Options: Options{DropLate: true, Telemetry: tel},
	}, decisionWorkload(seed))
	return tel
}

func TestTelemetrySampling(t *testing.T) {
	tel := runTelemetry(t, 20)
	if tel.Rows() == 0 {
		t.Fatal("no telemetry rows sampled")
	}
	for i := 0; i < tel.Rows(); i++ {
		if i > 0 && tel.Time[i] < tel.Time[i-1] {
			t.Fatalf("row %d: time %d before previous %d", i, tel.Time[i], tel.Time[i-1])
		}
		// The final row closes the run at the completion time and may
		// share the last sampled row's interval; every other boundary
		// lands at most one row per interval.
		if i > 0 && i < tel.Rows()-1 && tel.Time[i]/tel.Interval == tel.Time[i-1]/tel.Interval {
			t.Fatalf("row %d: two rows in one interval (%d, %d)", i, tel.Time[i-1], tel.Time[i])
		}
		if b := tel.Busy[i]; b < 0 || b > 1 {
			t.Fatalf("row %d: utilization %v outside [0,1]", i, b)
		}
		if tel.Depth[i] < 0 || tel.VMin[i] > tel.VMax[i] {
			t.Fatalf("row %d: malformed depth/value columns", i)
		}
		if tel.Deadlined[i] > 0 {
			if tel.SlackP50[i] < tel.SlackMin[i] || tel.SlackP50[i] > tel.SlackMax[i] {
				t.Fatalf("row %d: slack p50 outside [min, max]", i)
			}
		}
	}
	sawBusy, sawDepth := false, false
	for i := 0; i < tel.Rows(); i++ {
		if tel.Busy[i] > 0 {
			sawBusy = true
		}
		if tel.Depth[i] > 0 {
			sawDepth = true
		}
	}
	if !sawBusy || !sawDepth {
		t.Errorf("telemetry never saw activity (busy seen: %v, depth seen: %v)", sawBusy, sawDepth)
	}
}

// The engine emits one closing row per station at completion, so the
// final partial interval is covered: the last row must be stamped at the
// run's makespan and the per-row utilization must integrate to the
// collector's total service time. Pre-fix, sampling stopped at the last
// interval boundary an event happened to cross and the tail was lost.
func TestTelemetryClosingRow(t *testing.T) {
	tel := NewTelemetry(50_000)
	tel.SetMetrics(&DecisionMetrics{})
	res := MustRun(Config{
		Disk: xp(), Scheduler: cascadedScheduler(),
		Options: Options{DropLate: true, Telemetry: tel},
	}, decisionWorkload(20))
	if tel.Rows() == 0 {
		t.Fatal("no telemetry rows sampled")
	}
	last := tel.Rows() - 1
	if tel.Time[last] != res.Makespan {
		t.Fatalf("last row at %d µs, want run makespan %d µs", tel.Time[last], res.Makespan)
	}
	// Utilization rows now tile the full run. Σ busy·dt can undercount
	// (service credited at completion clamps to 1.0 within one row) but
	// never overcount, and with the tail covered it must land close.
	var covered float64
	prev := int64(0)
	for i := 0; i < tel.Rows(); i++ {
		covered += tel.Busy[i] * float64(tel.Time[i]-prev)
		prev = tel.Time[i]
	}
	want := float64(res.ServiceTime)
	if covered > want+1 || covered < 0.85*want {
		t.Fatalf("utilization integrates to %.1f µs of service, collector says %d µs", covered, res.ServiceTime)
	}
}

// An empty run produces no closing rows.
func TestTelemetryEmptyRunNoRows(t *testing.T) {
	tel := NewTelemetry(50_000)
	tel.SetMetrics(&DecisionMetrics{})
	MustRun(Config{
		Disk: xp(), Scheduler: cascadedScheduler(),
		Options: Options{Telemetry: tel},
	}, nil)
	if tel.Rows() != 0 {
		t.Fatalf("empty run sampled %d rows", tel.Rows())
	}
}

func TestTelemetryCSVDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := runTelemetry(t, 21).WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := runTelemetry(t, 21).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("telemetry CSV not byte-identical across identical runs")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if lines[0] != strings.TrimRight(telemetryHeader, "\n") {
		t.Errorf("CSV header = %q", lines[0])
	}
	wantCols := strings.Count(telemetryHeader, ",") + 1
	for i, line := range lines {
		if got := strings.Count(line, ",") + 1; got != wantCols {
			t.Fatalf("line %d has %d columns, want %d: %s", i, got, wantCols, line)
		}
	}
}

// Reset must clear rows and sampling state so one sampler serves a sweep.
func TestTelemetryReset(t *testing.T) {
	tel := runTelemetry(t, 23)
	var first bytes.Buffer
	if err := tel.WriteCSV(&first); err != nil {
		t.Fatal(err)
	}
	tel.Reset()
	if tel.Rows() != 0 {
		t.Fatalf("rows after Reset = %d", tel.Rows())
	}
	MustRun(Config{
		Disk: xp(), Scheduler: cascadedScheduler(),
		Options: Options{DropLate: true, Telemetry: tel},
	}, decisionWorkload(23))
	var second bytes.Buffer
	if err := tel.WriteCSV(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("reset sampler diverged from fresh sampler on the identical run")
	}
}

// Telemetry with a non-value scheduler records zero value columns.
func TestTelemetryNonValueScheduler(t *testing.T) {
	tel := NewTelemetry(50_000)
	tel.SetMetrics(&DecisionMetrics{})
	MustRun(Config{
		Disk: xp(), Scheduler: sched.NewFCFS(),
		Options: Options{Telemetry: tel},
	}, decisionWorkload(24))
	for i := 0; i < tel.Rows(); i++ {
		if tel.VMin[i] != 0 || tel.VMax[i] != 0 {
			t.Fatalf("row %d: FCFS exposes no values, got v_min=%d v_max=%d",
				i, tel.VMin[i], tel.VMax[i])
		}
	}
}
