package sim

import (
	"bytes"
	"strings"
	"testing"

	"sfcsched/internal/sched"
)

// rowsOf makes tel keep a copy of every row it samples.
func rowsOf(tel *Telemetry) *[]TelemetryRow {
	rows := new([]TelemetryRow)
	tel.OnRow = func(row *TelemetryRow) { *rows = append(*rows, *row) }
	return rows
}

// runTelemetry runs the cascade on the decision workload of seed with a
// sampler streaming its CSV into the returned buffer.
func runTelemetry(t *testing.T, seed uint64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	tel := NewTelemetry(50_000)
	tel.OnRow = TelemetryCSV(&buf)
	MustRun(Config{
		Disk: xp(), Scheduler: cascadedScheduler(),
		Options: Options{DropLate: true, Telemetry: tel},
	}, decisionWorkload(seed))
	return &buf
}

func TestTelemetrySampling(t *testing.T) {
	tel := NewTelemetry(50_000)
	got := rowsOf(tel)
	MustRun(Config{
		Disk: xp(), Scheduler: cascadedScheduler(),
		Options: Options{DropLate: true, Telemetry: tel},
	}, decisionWorkload(20))
	rows := *got
	if len(rows) == 0 {
		t.Fatal("no telemetry rows sampled")
	}
	if tel.Rows() != len(rows) {
		t.Fatalf("Rows() = %d, hook saw %d", tel.Rows(), len(rows))
	}
	sawBusy, sawDepth := false, false
	for i, row := range rows {
		if i > 0 && row.Time < rows[i-1].Time {
			t.Fatalf("row %d: time %d before previous %d", i, row.Time, rows[i-1].Time)
		}
		// The final row closes the run at the completion time and may
		// share the last sampled row's interval; every other boundary
		// lands at most one row per interval.
		if i > 0 && i < len(rows)-1 && row.Time/tel.interval == rows[i-1].Time/tel.interval {
			t.Fatalf("row %d: two rows in one interval (%d, %d)", i, rows[i-1].Time, row.Time)
		}
		if row.Busy < 0 || row.Busy > 1 {
			t.Fatalf("row %d: utilization %v outside [0,1]", i, row.Busy)
		}
		if row.Depth < 0 || row.VMin > row.VMax {
			t.Fatalf("row %d: malformed depth/value fields", i)
		}
		if row.Deadlined > 0 && (row.SlackP50 < row.SlackMin || row.SlackP50 > row.SlackMax) {
			t.Fatalf("row %d: slack p50 outside [min, max]", i)
		}
		sawBusy = sawBusy || row.Busy > 0
		sawDepth = sawDepth || row.Depth > 0
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
	got := rowsOf(tel)
	res := MustRun(Config{
		Disk: xp(), Scheduler: cascadedScheduler(),
		Options: Options{DropLate: true, Telemetry: tel},
	}, decisionWorkload(20))
	rows := *got
	if len(rows) == 0 {
		t.Fatal("no telemetry rows sampled")
	}
	if last := rows[len(rows)-1]; last.Time != res.Makespan {
		t.Fatalf("last row at %d µs, want run makespan %d µs", last.Time, res.Makespan)
	}
	// Utilization rows now tile the full run. Σ busy·dt can undercount
	// (service credited at completion clamps to 1.0 within one row) but
	// never overcount, and with the tail covered it must land close.
	var covered float64
	prev := int64(0)
	for _, row := range rows {
		covered += row.Busy * float64(row.Time-prev)
		prev = row.Time
	}
	want := float64(res.ServiceTime)
	if covered > want+1 || covered < 0.85*want {
		t.Fatalf("utilization integrates to %.1f µs of service, collector says %d µs", covered, res.ServiceTime)
	}
}

// An empty run produces no closing rows.
func TestTelemetryEmptyRunNoRows(t *testing.T) {
	tel := NewTelemetry(50_000)
	MustRun(Config{
		Disk: xp(), Scheduler: cascadedScheduler(),
		Options: Options{Telemetry: tel},
	}, nil)
	if tel.Rows() != 0 {
		t.Fatalf("empty run sampled %d rows", tel.Rows())
	}
}

func TestTelemetryCSVDeterministic(t *testing.T) {
	a, b := runTelemetry(t, 21), runTelemetry(t, 21)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("telemetry CSV not byte-identical across identical runs")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if lines[0] != strings.TrimRight(telemetryHeader, "\n") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if len(lines) < 2 {
		t.Fatal("telemetry CSV has no rows")
	}
	wantCols := strings.Count(telemetryHeader, ",") + 1
	for i, line := range lines {
		if got := strings.Count(line, ",") + 1; got != wantCols {
			t.Fatalf("line %d has %d columns, want %d: %s", i, got, wantCols, line)
		}
	}
}

// Reset must clear the row count and sampling state so one sampler serves
// a sweep.
func TestTelemetryReset(t *testing.T) {
	tel := NewTelemetry(50_000)
	run := func() *bytes.Buffer {
		var buf bytes.Buffer
		tel.OnRow = TelemetryCSV(&buf)
		MustRun(Config{
			Disk: xp(), Scheduler: cascadedScheduler(),
			Options: Options{DropLate: true, Telemetry: tel},
		}, decisionWorkload(23))
		return &buf
	}
	first := run()
	tel.Reset()
	if tel.Rows() != 0 {
		t.Fatalf("rows after Reset = %d", tel.Rows())
	}
	if second := run(); !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("reset sampler diverged from fresh sampler on the identical run")
	}
}

// Telemetry with a non-value scheduler records zero value fields.
func TestTelemetryNonValueScheduler(t *testing.T) {
	tel := NewTelemetry(50_000)
	rows := rowsOf(tel)
	MustRun(Config{
		Disk: xp(), Scheduler: sched.NewFCFS(),
		Options: Options{Telemetry: tel},
	}, decisionWorkload(24))
	for i, row := range *rows {
		if row.VMin != 0 || row.VMax != 0 {
			t.Fatalf("row %d: FCFS exposes no values, got v_min=%d v_max=%d", i, row.VMin, row.VMax)
		}
	}
}
