package sim

import (
	"io"
	"strconv"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
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
// With tracing enabled, each record is built in one scratch record, handed
// to the OnRecord hook and forgotten; every per-decision buffer (candidate
// scratch, slack scratch, JSONL buffer) is reused, so capture retains
// nothing and performs no per-decision allocations once the scratch has
// grown to the deepest queue observed. A decision
// costs one queue walk and one pass over its candidates: values are read
// as queued (ValueWalker), never recomputed, and nothing is sorted.

// MaxTopK is the number of head-of-queue candidates retained per decision
// record. Fixed-size so records are flat copyable values with no
// per-record allocation.
const MaxTopK = 8

// NoValue marks a candidate whose scheduler exposes no queued values (it
// does not implement ValueWalker).
const NoValue = ^uint64(0)

// NoDeadlineSlack is the slack reported for requests without a deadline
// (matching core.Request.Slack).
const NoDeadlineSlack = int64(1) << 62

// ValueWalker is implemented by schedulers that order requests by a scalar
// computed once, at enqueue — lower is served earlier. EachValue visits
// every queued request with that value and must be read-only: decision
// tracing and telemetry walk live queues with it. core.Scheduler
// implements it with the dispatcher's queued v_c.
type ValueWalker interface {
	EachValue(visit func(*core.Request, uint64))
}

// ValueRanker is implemented by schedulers that can recompute the value
// they would assign a request now (core.Scheduler.RequestValue). No
// observer in this package calls it — they read the queued values through
// ValueWalker. It stays because the benchmark's scheduler decorator
// (bench/decor.go) forwards it, until the benchmark is next revised.
type ValueRanker interface {
	RequestValue(r *core.Request, now int64, head int) uint64
}

// eachValue walks s's queue as (request, value) pairs: with the values the
// dispatcher queued when s is a ValueWalker, otherwise through noValue,
// which must be visit with NoValue bound once by the caller so the walk
// allocates nothing. It reports whether the values are the scheduler's.
func eachValue(s sched.Scheduler, visit func(*core.Request, uint64), noValue func(*core.Request)) bool {
	if w, ok := s.(ValueWalker); ok {
		w.EachValue(visit)
		return true
	}
	s.Each(noValue)
	return false
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
	// dispatcher orders it by — or NoValue when the scheduler is not a
	// ValueWalker.
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
	// the scheduler is a ValueWalker, 0 otherwise.
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
	// scheduler is a ValueWalker, by (Slack, ID) otherwise.
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

	// Per-snapshot scratch, reused across decisions.
	cands   []DecisionCandidate
	slacks  []int64
	visit   func(*core.Request, uint64)
	noValue func(*core.Request)
	byV     bool
	now     int64
	head    int
}

// NewDecisionTrace returns a trace with no hook. capacity is unused: the
// trace retains no records. It stays because the benchmark passes one,
// until the benchmark is next revised.
func NewDecisionTrace(capacity int) *DecisionTrace {
	t := &DecisionTrace{}
	t.visit = func(r *core.Request, v uint64) {
		t.cands = append(t.cands, DecisionCandidate{
			ID: r.ID, Cylinder: r.Cylinder, Slack: r.Slack(t.now), V: v,
		})
	}
	t.noValue = func(r *core.Request) { t.visit(r, NoValue) }
	return t
}

// Total returns the number of decisions captured over the trace's
// lifetime.
func (t *DecisionTrace) Total() uint64 { return t.total }

// snapshot walks the station's queue into the candidate scratch before the
// scheduler is asked to decide. The walk is read-only.
func (t *DecisionTrace) snapshot(st *Station, now int64) {
	t.cands = t.cands[:0]
	t.now, t.head = now, st.head
	t.byV = eachValue(st.Sched, t.visit, t.noValue)
}

// ranksBefore orders candidates by (V, ID) when byV, by (Slack, ID)
// otherwise. Queued IDs are distinct, so both are total orders and
// rankings are deterministic.
func ranksBefore(a, b DecisionCandidate, byV bool) bool {
	if byV && a.V != b.V {
		return a.V < b.V
	}
	if !byV && a.Slack != b.Slack {
		return a.Slack < b.Slack
	}
	return a.ID < b.ID
}

// summarize fills rec's candidate summary — Chosen.V, Deadlined, VSpread,
// the slack distribution and TopK — in one pass over cands, keeping the
// top MaxTopK by bounded insertion. rec.Chosen.ID must be set and rec.K
// zero. slacks is scratch, returned grown.
func summarize(rec *DecisionRecord, cands []DecisionCandidate, byV bool, slacks []int64) []int64 {
	slacks = slacks[:0]
	vmin, vmax := NoValue, uint64(0)
	for _, c := range cands {
		if c.ID == rec.Chosen.ID {
			rec.Chosen.V = c.V
		}
		if c.Slack != NoDeadlineSlack {
			slacks = append(slacks, c.Slack)
		}
		vmin, vmax = min(vmin, c.V), max(vmax, c.V)

		k := rec.K
		if k == MaxTopK {
			if !ranksBefore(c, rec.TopK[k-1], byV) {
				continue
			}
			k--
		} else {
			rec.K++
		}
		for ; k > 0 && ranksBefore(c, rec.TopK[k-1], byV); k-- {
			rec.TopK[k] = rec.TopK[k-1]
		}
		rec.TopK[k] = c
	}
	if byV && len(cands) > 0 {
		rec.VSpread = vmax - vmin
	}
	rec.Deadlined = len(slacks)
	rec.SlackMin, rec.SlackP50, rec.SlackMax = slackSummary(slacks)
	return slacks
}

// slackSummary returns the minimum, the median — exactly what a sort would
// leave at s[len(s)/2] — and the maximum of s, all 0 when s is empty. It
// reorders s: the median comes from quickselect, O(n) expected, where a
// sort would be O(n log n).
func slackSummary(s []int64) (lo, p50, hi int64) {
	if len(s) == 0 {
		return 0, 0, 0
	}
	lo, hi = s[0], s[0]
	for _, x := range s[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, selectNth(s, len(s)/2), hi
}

// selectNth returns the element a sort would place at index k of s,
// partially reordering s: quickselect with a middle pivot and a
// branch-free Lomuto partition, since on a queue-sized set the
// comparisons are unpredictable and a mispredicted branch per element
// costs more than the swap. Copies of the pivot are counted and moved out
// of the range, so ties cost no extra rounds.
func selectNth(s []int64, k int) int64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		s[mid], s[hi] = s[hi], s[mid]
		p := s[hi]
		i, eq := lo, 0
		for j := lo; j < hi; j++ {
			x := s[j]
			s[j], s[i] = s[i], x
			i += b2i(x < p)
			eq += b2i(x == p)
		}
		s[i], s[hi] = p, s[i]
		// Now s[lo:i] < p = s[i] ≤ s[i+1:hi+1], eq of which equal p.
		switch {
		case k < i:
			hi = i - 1
		case k <= i+eq:
			return p
		default:
			lo = i + 1
			if eq > 0 {
				for j := lo; j <= hi; j++ {
					x := s[j]
					s[j], s[lo] = s[lo], x
					lo += b2i(x == p)
				}
			}
		}
	}
	return s[k]
}

// b2i is 1 for true and 0 for false; the compiler emits it as a flag
// move, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit turns the pending snapshot plus the scheduler's choice into the
// scratch record and hands it to OnRecord. Called once per decision, for
// serves and deadline drops alike.
func (t *DecisionTrace) commit(st *Station, r *core.Request, now int64, dropped bool) {
	rec := &t.rec
	*rec = DecisionRecord{
		Seq:     t.total,
		Now:     now,
		DiskID:  st.ID,
		Head:    t.head,
		Depth:   len(t.cands),
		Dropped: dropped,
		Chosen:  DecisionCandidate{ID: r.ID, Cylinder: r.Cylinder, Slack: r.Slack(now), V: NoValue},
	}
	if ws, ok := st.Sched.(WindowStater); ok {
		rec.Window = ws.Window()
	}
	t.slacks = summarize(rec, t.cands, t.byV, t.slacks)
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
