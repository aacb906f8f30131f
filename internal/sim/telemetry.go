package sim

import (
	"io"
	"strconv"
)

// Telemetry samples per-station state at fixed sim-time intervals: queue
// depth, completed-service utilization, characterization-value spread and
// the deadline-slack distribution of the queued requests. Each sampled row
// goes to OnRow and is forgotten. Install one via Options.Telemetry.
//
// Sampling is driven from inside the engine's run loop: after each event
// round, if the clock has crossed the next interval boundary, one row per
// station is recorded stamped at the actual event time. The sampler never
// schedules events of its own, so it is provably non-perturbing — the
// event sequence with telemetry attached is identical to one without.
// (The cost is that rows land at event times at-or-after each boundary,
// not exactly on it.) When the engine completes, one closing row per
// station is recorded at the final event time, so the last partial
// interval is covered and per-station utilization sums span the whole
// run; only an entirely empty run produces no rows.
//
// Cost contract: a row is read off the station's queue view (view.go),
// with no queue walk, into one scratch row, so sampling retains nothing
// and allocates nothing in steady state. The view itself costs every
// enqueue and removal a binary search per list, paid whenever a sampler
// (or a decision trace) is attached.
type Telemetry struct {
	// Interval is the sampling period, µs. Set by NewTelemetry.
	Interval int64
	// OnRow, when non-nil, receives every sampled row. The pointer aliases
	// the sampler's scratch row and is overwritten by the next row: hooks
	// must copy what they retain. TelemetryCSV adapts an io.Writer into a
	// streaming hook.
	OnRow func(*TelemetryRow)

	row      TelemetryRow
	rows     int
	next     int64
	prevTime int64
	prevBusy []int64
}

// TelemetryRow is one sampled station state.
type TelemetryRow struct {
	Time      int64   // sim time of the row, µs
	Disk      int     // station ID
	Depth     int     // queue depth (excluding the in-service request)
	Busy      float64 // completed-service utilization since the last row, [0,1]
	VMin      uint64  // min queued value (0 when the scheduler reports none, or empty)
	VMax      uint64  // max queued value; both are the enqueue-time values the dispatcher sorts by
	Deadlined int     // queued requests carrying a deadline
	SlackMin  int64   // slack distribution over the Deadlined requests, µs
	SlackP50  int64
	SlackMax  int64
}

// NewTelemetry returns a sampler with the given period (µs) and no hook;
// interval < 1 is raised to 1.
func NewTelemetry(interval int64) *Telemetry {
	if interval < 1 {
		interval = 1
	}
	return &Telemetry{Interval: interval}
}

// Rows returns the number of rows sampled since the last Reset.
func (tel *Telemetry) Rows() int { return tel.rows }

// Reset clears the row count and sampling state, so one sampler can serve
// successive runs in a sweep.
func (tel *Telemetry) Reset() {
	tel.rows = 0
	tel.next = 0
	tel.prevTime = 0
	for i := range tel.prevBusy {
		tel.prevBusy[i] = 0
	}
}

// sample records one row per station when the clock has crossed the next
// interval boundary. Called from the engine run loop after each event
// round; read-only with respect to simulation state.
func (tel *Telemetry) sample(e *Engine, t int64) {
	if t < tel.next {
		return
	}
	for _, st := range e.Stations {
		tel.sampleStation(st, t)
	}
	tel.prevTime = t
	tel.next = (t/tel.Interval + 1) * tel.Interval
}

// closeRun records the final partial interval: one closing row per
// station stamped at the engine's completion time. Called once from
// Engine.Run after the event loop drains; a no-op when the run already
// ended exactly on a sampled row, or when the run was empty, so rows are
// never duplicated.
func (tel *Telemetry) closeRun(e *Engine, t int64) {
	if t > tel.prevTime {
		tel.next = t
		tel.sample(e, t)
	}
}

func (tel *Telemetry) sampleStation(st *Station, t int64) {
	for len(tel.prevBusy) <= st.ID {
		tel.prevBusy = append(tel.prevBusy, 0)
	}
	busy := 0.0
	if dt := t - tel.prevTime; dt > 0 {
		busy = float64(st.Col.ServiceTime-tel.prevBusy[st.ID]) / float64(dt)
		if busy < 0 {
			busy = 0
		}
		if busy > 1 {
			busy = 1
		}
	}
	tel.prevBusy[st.ID] = st.Col.ServiceTime

	// Depth, value spread and slack distribution, read off the queue view.
	vmin, vmax := st.view.values()
	deadlined, smin, sp50, smax := st.view.slacks(t)
	tel.row = TelemetryRow{
		Time: t, Disk: st.ID, Depth: st.view.len(), Busy: busy,
		VMin: vmin, VMax: vmax, Deadlined: deadlined,
		SlackMin: smin, SlackP50: sp50, SlackMax: smax,
	}
	tel.rows++
	if tel.OnRow != nil {
		tel.OnRow(&tel.row)
	}
}

// telemetryHeader is the CSV column order of TelemetryCSV.
const telemetryHeader = "time_us,disk,depth,busy,v_min,v_max,deadlined,slack_min,slack_p50,slack_max\n"

// TelemetryCSV writes the CSV header line to w and adapts w into an OnRow
// hook writing one line per row, into a buffer reused across rows (zero
// allocations per row once grown). The first write error silences the
// hook for the rest of the run.
func TelemetryCSV(w io.Writer) func(*TelemetryRow) {
	_, err := io.WriteString(w, telemetryHeader)
	failed := err != nil
	var buf []byte
	return func(row *TelemetryRow) {
		if failed {
			return
		}
		b := buf[:0]
		b = strconv.AppendInt(b, row.Time, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(row.Disk), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(row.Depth), 10)
		b = append(b, ',')
		b = strconv.AppendFloat(b, row.Busy, 'f', 4, 64)
		b = append(b, ',')
		b = strconv.AppendUint(b, row.VMin, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, row.VMax, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(row.Deadlined), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, row.SlackMin, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, row.SlackP50, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, row.SlackMax, 10)
		b = append(b, '\n')
		buf = b
		if _, err := w.Write(b); err != nil {
			failed = true
		}
	}
}
