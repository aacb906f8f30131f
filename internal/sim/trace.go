package sim

import (
	"io"
	"strconv"

	"sfcsched/internal/core"
)

// TraceEvent describes one dispatch decision of a run: either a service
// (Seek/Service filled) or a drop (Dropped set). It is handed to
// Options.Trace synchronously, before the modeled service completes, so a
// hook sees decisions in dispatch order.
type TraceEvent struct {
	// Now is the simulation clock at the decision, microseconds.
	Now int64
	// DiskID is the station the decision happened on: always 0 for
	// single-disk runs, the disk index for array runs (where Request is
	// the physical operation, not the logical block request).
	DiskID int
	// Request is the dispatched request. Hooks must not retain or mutate
	// it; copy what they need. On array and cluster runs it is a recycled
	// physical op, reused for a later op once it leaves the engine.
	Request *core.Request
	// Head is the head cylinder at dispatch (services only).
	Head int
	// Seek and Service are the modeled seek and total service time of this
	// dispatch, microseconds. Zero for drops.
	Seek    int64
	Service int64
	// Dropped marks a §6 deadline drop: the request was dequeued past its
	// deadline and never occupied the disk.
	Dropped bool
	// Faulted marks a fault-injection decision: a failed service attempt.
	// With Dropped false the request will retry; with Dropped true it was
	// abandoned (retry budget exhausted or stranded on a failed disk).
	// Unlike deadline drops, a faulted attempt did occupy the disk.
	Faulted bool
	// QueueLen is the number of requests still queued after this decision.
	QueueLen int
}

// JSONLTrace adapts w into an Options.Trace hook that writes one JSON object
// per line per dispatch decision. The first write error silences the hook
// for the rest of the run (the simulation result is unaffected); wrap w in
// a bufio.Writer for long traces and flush it after Run returns.
//
// Lines are appended by hand instead of reflecting through encoding/json
// per dispatch; the bytes are identical to a json.Encoder over the flat
// record trace_test.go declares (the equivalence is pinned by a test).
func JSONLTrace(w io.Writer) func(TraceEvent) {
	return lineHook(w, appendTrace)
}

// lineHook adapts w into a hook writing each record as the line appendLine
// appends for it, into one buffer reused across records (zero allocations
// per record once grown). The first write error silences the hook for the
// rest of the run. The dispatch trace, the decision records and the
// telemetry rows are all written through it.
func lineHook[T any](w io.Writer, appendLine func([]byte, T) []byte) func(T) {
	var buf []byte
	failed := false
	return func(rec T) {
		if failed {
			return
		}
		buf = appendLine(buf[:0], rec)
		if _, err := w.Write(buf); err != nil {
			failed = true
		}
	}
}

// appendTrace appends ev as one JSON line.
func appendTrace(b []byte, ev TraceEvent) []byte {
	r := ev.Request
	b = append(b, `{"now":`...)
	b = strconv.AppendInt(b, ev.Now, 10)
	if ev.DiskID != 0 {
		b = append(b, `,"disk":`...)
		b = strconv.AppendInt(b, int64(ev.DiskID), 10)
	}
	b = append(b, `,"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = append(b, `,"cyl":`...)
	b = strconv.AppendInt(b, int64(r.Cylinder), 10)
	b = append(b, `,"arrival":`...)
	b = strconv.AppendInt(b, r.Arrival, 10)
	b = append(b, `,"wait":`...)
	b = strconv.AppendInt(b, ev.Now-r.Arrival, 10)
	if r.Deadline != 0 {
		b = append(b, `,"deadline":`...)
		b = strconv.AppendInt(b, r.Deadline, 10)
	}
	if len(r.Priorities) > 0 {
		b = append(b, `,"prio":[`...)
		for i, p := range r.Priorities {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	if r.Size != 0 {
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, r.Size, 10)
	}
	if r.Write {
		b = append(b, `,"write":true`...)
	}
	if r.Value != 0 {
		b = append(b, `,"value":`...)
		b = strconv.AppendInt(b, int64(r.Value), 10)
	}
	if r.Tenant != 0 {
		b = append(b, `,"tenant":`...)
		b = strconv.AppendInt(b, int64(r.Tenant), 10)
	}
	if r.Class != 0 {
		b = append(b, `,"class":`...)
		b = strconv.AppendInt(b, int64(r.Class), 10)
	}
	b = append(b, `,"head":`...)
	b = strconv.AppendInt(b, int64(ev.Head), 10)
	if ev.Seek != 0 {
		b = append(b, `,"seek":`...)
		b = strconv.AppendInt(b, ev.Seek, 10)
	}
	if ev.Service != 0 {
		b = append(b, `,"service":`...)
		b = strconv.AppendInt(b, ev.Service, 10)
	}
	if ev.Dropped {
		b = append(b, `,"dropped":true`...)
	}
	if ev.Faulted {
		b = append(b, `,"faulted":true`...)
	}
	b = append(b, `,"queue":`...)
	b = strconv.AppendInt(b, int64(ev.QueueLen), 10)
	return append(b, '}', '\n')
}
