package sim

import (
	"io"
	"strconv"

	"sfcsched/internal/core"
)

// Telemetry samples per-station state at fixed sim-time intervals into a
// compact columnar buffer: queue depth, completed-service utilization,
// characterization-value spread and the deadline-slack distribution of
// the queued requests. Install one via Options.Telemetry.
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
// All columns have one entry per row; row i describes station Disk[i] at
// time Time[i]. Scratch buffers are reused, so steady-state sampling
// allocates only for column growth.
type Telemetry struct {
	// Interval is the sampling period, µs. Set by NewTelemetry.
	Interval int64

	// Columns, one entry per sampled row.
	Time      []int64   // sim time of the row, µs
	Disk      []int32   // station ID
	Depth     []int32   // queue depth (excluding the in-service request)
	Busy      []float64 // completed-service utilization since the last row, [0,1]
	VMin      []uint64  // min queued value (0 when no ValueWalker or empty)
	VMax      []uint64  // max queued value; both are the enqueue-time values the dispatcher sorts by
	Deadlined []int32   // queued requests carrying a deadline
	SlackMin  []int64   // slack distribution over the Deadlined requests, µs
	SlackP50  []int64
	SlackMax  []int64

	next     int64
	prevTime int64
	prevBusy []int64
	m        *DecisionMetrics

	// Queue-walk scratch, reused across rows.
	visit      func(*core.Request, uint64)
	noValue    func(*core.Request)
	now        int64
	vmin, vmax uint64
	slacks     []int64
}

// NewTelemetry returns a sampler with the given period (µs); interval < 1
// is raised to 1.
func NewTelemetry(interval int64) *Telemetry {
	if interval < 1 {
		interval = 1
	}
	t := &Telemetry{Interval: interval, m: DefaultDecisionMetrics}
	t.visit = func(r *core.Request, v uint64) {
		t.vmin, t.vmax = min(t.vmin, v), max(t.vmax, v)
		if s := r.Slack(t.now); s != NoDeadlineSlack {
			t.slacks = append(t.slacks, s)
		}
	}
	t.noValue = func(r *core.Request) { t.visit(r, NoValue) }
	return t
}

// SetMetrics redirects the sampler's counters to m instead of the
// process-wide DefaultDecisionMetrics. Call before the run starts.
func (tel *Telemetry) SetMetrics(m *DecisionMetrics) { tel.m = m }

// Rows returns the number of sampled rows.
func (tel *Telemetry) Rows() int { return len(tel.Time) }

// Reset clears the sampled rows and sampling state, keeping column
// capacity, so one sampler can serve successive runs in a sweep.
func (tel *Telemetry) Reset() {
	tel.Time = tel.Time[:0]
	tel.Disk = tel.Disk[:0]
	tel.Depth = tel.Depth[:0]
	tel.Busy = tel.Busy[:0]
	tel.VMin = tel.VMin[:0]
	tel.VMax = tel.VMax[:0]
	tel.Deadlined = tel.Deadlined[:0]
	tel.SlackMin = tel.SlackMin[:0]
	tel.SlackP50 = tel.SlackP50[:0]
	tel.SlackMax = tel.SlackMax[:0]
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
	tel.m.TelemetrySamples.Add(uint64(len(e.Stations)))
}

// closeRun records the final partial interval: one closing row per
// station stamped at the engine's completion time. Called once from
// Engine.Run after the event loop drains; a no-op when the run already
// ended exactly on a sampled row, or when the run was empty, so rows are
// never duplicated.
func (tel *Telemetry) closeRun(e *Engine, t int64) {
	if t <= tel.prevTime {
		return
	}
	for _, st := range e.Stations {
		tel.sampleStation(st, t)
	}
	tel.prevTime = t
	tel.next = (t/tel.Interval + 1) * tel.Interval
	tel.m.TelemetrySamples.Add(uint64(len(e.Stations)))
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

	// Walk the queue for value spread and slack distribution.
	tel.now = t
	tel.vmin, tel.vmax = NoValue, 0
	tel.slacks = tel.slacks[:0]
	values := eachValue(st.Sched, tel.visit, tel.noValue)
	vmin, vmax := tel.vmin, tel.vmax
	if !values || vmin > vmax { // no queued values, or empty queue
		vmin, vmax = 0, 0
	}
	smin, sp50, smax := slackSummary(tel.slacks)

	tel.Time = append(tel.Time, t)
	tel.Disk = append(tel.Disk, int32(st.ID))
	tel.Depth = append(tel.Depth, int32(st.Sched.Len()))
	tel.Busy = append(tel.Busy, busy)
	tel.VMin = append(tel.VMin, vmin)
	tel.VMax = append(tel.VMax, vmax)
	tel.Deadlined = append(tel.Deadlined, int32(len(tel.slacks)))
	tel.SlackMin = append(tel.SlackMin, smin)
	tel.SlackP50 = append(tel.SlackP50, sp50)
	tel.SlackMax = append(tel.SlackMax, smax)
}

// telemetryHeader is the CSV column order of WriteCSV.
const telemetryHeader = "time_us,disk,depth,busy,v_min,v_max,deadlined,slack_min,slack_p50,slack_max\n"

// WriteCSV writes the sampled rows as CSV with a header line. Output is
// deterministic for a deterministic run.
func (tel *Telemetry) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, telemetryHeader); err != nil {
		return err
	}
	var buf []byte
	for i := range tel.Time {
		b := buf[:0]
		b = strconv.AppendInt(b, tel.Time[i], 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(tel.Disk[i]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(tel.Depth[i]), 10)
		b = append(b, ',')
		b = strconv.AppendFloat(b, tel.Busy[i], 'f', 4, 64)
		b = append(b, ',')
		b = strconv.AppendUint(b, tel.VMin[i], 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, tel.VMax[i], 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(tel.Deadlined[i]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, tel.SlackMin[i], 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, tel.SlackP50[i], 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, tel.SlackMax[i], 10)
		b = append(b, '\n')
		buf = b
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
