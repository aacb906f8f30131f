package sim

import (
	"io"
	"strconv"

	"sfcsched/internal/core"
)

// This file is the decision-observability layer of the simulator: a
// per-dispatch capture of the context the scheduler decided in — the
// candidate set it chose from, the chosen request, the deadline-slack
// distribution across the queue, the head position and (for the
// Cascaded-SFC scheduler) the blocking-window state. The record stream
// feeds the -decision-trace JSONL writer; the
// counterfactual shadow schedulers (shadow.go) are scored at the same
// decision points.
//
// Cost contract: with Options.Decisions nil the engine's dispatch path is
// untouched (no captures, no allocations — pinned by the alloc gates).
// With tracing enabled, each record is read off the station's queue view
// (view.go) into one scratch record, handed to the OnRecord hook and
// forgotten: no queue walk, no sort, O(MaxTopK) per decision. Values are
// the ones the dispatcher queued, kept by the view from the add itself
// (AddValue), never recomputed. The JSONL buffer is reused, so capture
// retains nothing and allocates nothing per decision once the view has
// grown to the deepest queue observed.

// MaxTopK is the number of head-of-queue candidates retained per decision
// record. Fixed-size so records are flat copyable values with no
// per-record allocation.
const MaxTopK = 8

// NoValue marks a candidate whose scheduler reports no queued values (it
// has no AddValue method).
const NoValue = ^uint64(0)

// NoDeadlineSlack is the slack reported for requests without a deadline
// (matching core.Request.Slack).
const NoDeadlineSlack = int64(1) << 62

// ValueRanker is implemented by schedulers that can recompute the value
// they would assign a request now (core.Scheduler.RequestValue). No
// observer in this package calls it — they keep the value the scheduler
// reported when it queued each request. It stays because the benchmark's
// scheduler decorator (bench/decor.go) forwards it, until the benchmark
// is next revised.
type ValueRanker interface {
	RequestValue(r *core.Request, now int64, head int) uint64
}

// WindowStater is implemented by schedulers exposing a blocking-window
// state (core.Scheduler reports the dispatcher's current — possibly
// ER-expanded — window).
type WindowStater interface {
	Window() uint64
}

// DecisionCandidate is one queued request inside a decision record.
type DecisionCandidate struct {
	// ID is the request ID.
	ID uint64
	// Cylinder is the request's target cylinder (logical block on arrays).
	Cylinder int
	// Slack is the deadline slack at decision time, µs (negative when
	// expired, NoDeadlineSlack when the request has no deadline).
	Slack int64
	// V is the value the candidate was enqueued at — the one the
	// dispatcher orders it by — or NoValue when the scheduler reports no
	// values.
	V uint64
}

// DecisionRecord captures the context of one dispatch decision.
type DecisionRecord struct {
	// Seq is the decision's index in the run, dense from 0 across all
	// stations.
	Seq uint64
	// Now is the simulation clock at the decision, µs.
	Now int64
	// DiskID is the station the decision happened on.
	DiskID int
	// Head is the station's head cylinder when the scheduler decided.
	Head int
	// Depth is the candidate-set size the scheduler chose from (including
	// the chosen request).
	Depth int
	// Deadlined is the number of candidates carrying a deadline; the slack
	// distribution below is over exactly these.
	Deadlined int
	// Window is the blocking-window state of a WindowStater scheduler at
	// the decision, 0 otherwise.
	Window uint64
	// Chosen is the dispatched (or dropped) request; its V is the queued
	// value of the candidate with its ID.
	Chosen DecisionCandidate
	// Dropped marks a §6 deadline drop rather than a service start.
	Dropped bool
	// VSpread is the max-min spread of the candidates' queued values when
	// the scheduler reports them, 0 otherwise.
	VSpread uint64
	// SlackMin, SlackP50 and SlackMax summarize the deadline-slack
	// distribution over the Deadlined candidates, µs. All zero when no
	// candidate has a deadline.
	SlackMin int64
	SlackP50 int64
	SlackMax int64
	// K is the number of valid entries in TopK.
	K int
	// TopK holds the K head-of-queue candidates in rank order: by (V, ID)
	// over the enqueue-time values the dispatcher sorted by when the
	// scheduler reports them, by (Slack, ID) otherwise.
	TopK [MaxTopK]DecisionCandidate
}

// DecisionTrace captures one record per dispatch decision and streams it
// to OnRecord; it keeps none. Install one via Options.Decisions; it is not
// safe for concurrent use across simultaneous runs (one per run, like a
// collector).
type DecisionTrace struct {
	// OnRecord, when non-nil, receives every record as it is captured.
	// The pointer aliases the trace's scratch record and is overwritten by
	// the next decision: hooks must copy what they retain. DecisionJSONL
	// adapts an io.Writer into a streaming hook.
	OnRecord func(*DecisionRecord)

	rec   DecisionRecord
	total uint64
}

// NewDecisionTrace returns a trace with no hook. capacity is unused: the
// trace retains no records. It stays because the benchmark passes one,
// until the benchmark is next revised.
func NewDecisionTrace(capacity int) *DecisionTrace { return &DecisionTrace{} }

// Total returns the number of decisions captured over the trace's
// lifetime.
func (t *DecisionTrace) Total() uint64 { return t.total }

// commit reads the decision to serve or drop r off the station's queue
// view, which still holds r, into the scratch record and hands it to
// OnRecord. Called once per decision, for serves and deadline drops alike.
func (t *DecisionTrace) commit(st *Station, r *core.Request, now int64, dropped bool) {
	q := st.view
	rec := &t.rec
	*rec = DecisionRecord{
		Seq:     t.total,
		Now:     now,
		DiskID:  st.ID,
		Head:    st.head,
		Depth:   q.len(),
		Dropped: dropped,
		Chosen:  DecisionCandidate{ID: r.ID, Cylinder: r.Cylinder, Slack: r.Slack(now), V: q.value(r)},
	}
	if ws, ok := st.Sched.(WindowStater); ok {
		rec.Window = ws.Window()
	}
	q.summary(rec, now)
	t.total++
	if t.OnRecord != nil {
		t.OnRecord(rec)
	}
}

// appendCandidate appends one candidate as a JSON object, omitting v when
// the scheduler exposes no values.
func appendCandidate(b []byte, c DecisionCandidate) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, c.ID, 10)
	b = append(b, `,"cyl":`...)
	b = strconv.AppendInt(b, int64(c.Cylinder), 10)
	if c.Slack != NoDeadlineSlack {
		b = append(b, `,"slack":`...)
		b = strconv.AppendInt(b, c.Slack, 10)
	}
	if c.V != NoValue {
		b = append(b, `,"v":`...)
		b = strconv.AppendUint(b, c.V, 10)
	}
	return append(b, '}')
}

// DecisionJSONL adapts w into an OnRecord hook writing one JSON object per
// line per decision, into a buffer reused across records (zero allocations
// per record once grown). The first write error silences the hook for the
// rest of the run.
func DecisionJSONL(w io.Writer) func(*DecisionRecord) {
	var buf []byte
	failed := false
	return func(rec *DecisionRecord) {
		if failed {
			return
		}
		b := buf[:0]
		b = append(b, `{"seq":`...)
		b = strconv.AppendUint(b, rec.Seq, 10)
		b = append(b, `,"now":`...)
		b = strconv.AppendInt(b, rec.Now, 10)
		if rec.DiskID != 0 {
			b = append(b, `,"disk":`...)
			b = strconv.AppendInt(b, int64(rec.DiskID), 10)
		}
		b = append(b, `,"head":`...)
		b = strconv.AppendInt(b, int64(rec.Head), 10)
		b = append(b, `,"depth":`...)
		b = strconv.AppendInt(b, int64(rec.Depth), 10)
		if rec.Window != 0 {
			b = append(b, `,"window":`...)
			b = strconv.AppendUint(b, rec.Window, 10)
		}
		b = append(b, `,"chosen":`...)
		b = appendCandidate(b, rec.Chosen)
		if rec.Dropped {
			b = append(b, `,"dropped":true`...)
		}
		if rec.VSpread != 0 {
			b = append(b, `,"v_spread":`...)
			b = strconv.AppendUint(b, rec.VSpread, 10)
		}
		if rec.Deadlined > 0 {
			b = append(b, `,"deadlined":`...)
			b = strconv.AppendInt(b, int64(rec.Deadlined), 10)
			b = append(b, `,"slack_min":`...)
			b = strconv.AppendInt(b, rec.SlackMin, 10)
			b = append(b, `,"slack_p50":`...)
			b = strconv.AppendInt(b, rec.SlackP50, 10)
			b = append(b, `,"slack_max":`...)
			b = strconv.AppendInt(b, rec.SlackMax, 10)
		}
		b = append(b, `,"topk":[`...)
		for i := 0; i < rec.K; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCandidate(b, rec.TopK[i])
		}
		b = append(b, ']', '}', '\n')
		buf = b
		if _, err := w.Write(b); err != nil {
			failed = true
		}
	}
}
