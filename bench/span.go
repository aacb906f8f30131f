package main

import (
	"sort"
	"time"
)

// A span is one timed call across a layer boundary, recorded by a
// decorator owned by this package: what was called (name), when (start and
// end, ns since the recorder's epoch), the span that caused it (parent, an
// index into the same recorder, -1 for a root) and the repetition it
// belongs to.
type span struct {
	name   uint16
	rep    uint16
	parent int32
	start  int64
	end    int64
}

// recorder is one track of spans: everything recorded by goroutines that
// are ordered by happens-before (one goroutine, or a chain handing a token
// from one to the next). It preallocates its slice and does nothing but
// append while the workload runs; aggregation happens when it ends.
type recorder struct {
	epoch time.Time
	names []string
	ids   map[string]uint16
	spans []span
	cur   int32 // innermost open span, -1 at top level
	rep   uint16
}

func newRecorder(capacity int) *recorder {
	return &recorder{
		epoch: time.Now(),
		ids:   make(map[string]uint16),
		spans: make([]span, 0, capacity),
		cur:   -1,
	}
}

// id interns a span name. Decorators resolve their names once, at
// construction, so the hot path carries only the integer.
func (r *recorder) id(name string) uint16 {
	if v, ok := r.ids[name]; ok {
		return v
	}
	v := uint16(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = v
	return v
}

// begin opens a span as a child of the innermost open one. The clock is
// read last, so the recorder's own bookkeeping falls outside the span.
func (r *recorder) begin(name uint16) int32 {
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, rep: r.rep, parent: r.cur})
	r.cur = i
	r.spans[i].start = int64(time.Since(r.epoch))
	return i
}

// end closes span i. The clock is read first.
func (r *recorder) end(i int32) {
	t := int64(time.Since(r.epoch))
	s := &r.spans[i]
	s.end = t
	r.cur = s.parent
}

// spanCost is the measured price of recording one span. inner is what an
// empty span reads as its own duration (the tail of one clock read and the
// head of the next); total is the wall time one begin/end pair adds to its
// caller. total-inner therefore lands in the parent's self time.
type spanCost struct {
	inner float64 // ns
	total float64 // ns
}

// measureSpanCost times empty spans recorded into r itself, under a
// "trace.calibration" parent: the same slice, at the same size, that the
// workload's spans will stream into, so the price includes what writing to
// a buffer far larger than the caches costs. The median of several batches
// keeps a stray preemption out.
func measureSpanCost(r *recorder) spanCost {
	const batch, batches = 20_000, 9
	name := r.id("trace.empty")
	parent := r.begin(r.id("trace.calibration"))
	var inner, total []float64
	for b := 0; b < batches; b++ {
		first := len(r.spans)
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			r.end(r.begin(name))
		}
		el := time.Since(t0)
		var sum int64
		for _, s := range r.spans[first:] {
			sum += s.end - s.start
		}
		inner = append(inner, float64(sum)/batch)
		total = append(total, float64(el.Nanoseconds())/batch)
	}
	r.end(parent)
	return spanCost{inner: median(inner), total: median(total)}
}

// pretouch writes to every page of the preallocated span buffer, so the
// page faults of first use are paid before anything is timed.
func (r *recorder) pretouch() {
	buf := r.spans[:cap(r.spans)]
	const spansPerPage = 4096 / 24
	for i := 0; i < len(buf); i += spansPerPage {
		buf[i].parent = -1
	}
}

// spanStat aggregates every span of one name on one track.
type spanStat struct {
	Name string `json:"name"`
	// Count is the number of spans; Children the number of spans directly
	// beneath them, Descendants the number anywhere beneath them.
	Count       int64 `json:"count"`
	Children    int64 `json:"children"`
	Descendants int64 `json:"descendants"`
	// TotalNs sums end-start; SelfNs sums the part of each span no child
	// covers. Both are raw clock differences.
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// net returns the spans' total time with the recorder's own cost removed:
// each span loses the clock overlap it measured around nothing, and the
// whole price of every span recorded beneath it.
func (s spanStat) net(c spanCost) float64 {
	return float64(s.TotalNs) - float64(s.Count)*c.inner - float64(s.Descendants)*c.total
}

// netSelf is the self time with recording cost removed: the span's own
// clock overlap and the outside cost of each direct child.
func (s spanStat) netSelf(c spanCost) float64 {
	return float64(s.SelfNs) - float64(s.Count)*c.inner - float64(s.Children)*(c.total-c.inner)
}

// perCall is the mean net duration of the spans called name, ns; 0 when
// there were none.
func perCall(stats map[string]spanStat, c spanCost, name string) float64 {
	s := stats[name]
	if s.Count == 0 {
		return 0
	}
	return s.net(c) / float64(s.Count)
}

// aggregate computes per-name totals and self times. A span's self time is
// its duration minus the union of its children's intervals clipped to it:
// children may overlap each other (a decorator called from two goroutines
// of one chain) or stick out past the parent, and neither may be counted
// twice or beyond it. Spans are stored in begin order, so within one parent
// children arrive sorted by start and a single running "covered until"
// mark per parent yields the union. Spans never ended are ignored.
func (r *recorder) aggregate() []spanStat {
	n := len(r.spans)
	covered := make([]int64, n)      // ns of each span covered by children
	coveredUntil := make([]int64, n) // right edge of the union so far
	kids := make([]int64, n)
	desc := make([]int64, n)
	for i := range r.spans {
		coveredUntil[i] = r.spans[i].start
	}
	// A child always has a higher index than its parent, so one reverse
	// sweep carries descendant counts all the way up.
	for i := n - 1; i >= 0; i-- {
		if c := &r.spans[i]; c.parent >= 0 && c.end >= c.start {
			desc[c.parent] += desc[i] + 1
		}
	}
	for i := range r.spans {
		c := &r.spans[i]
		if c.end < c.start || c.parent < 0 {
			continue
		}
		p := &r.spans[c.parent]
		if p.end < p.start {
			continue
		}
		kids[c.parent]++
		lo, hi := c.start, c.end
		if lo < coveredUntil[c.parent] {
			lo = coveredUntil[c.parent]
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			covered[c.parent] += hi - lo
			coveredUntil[c.parent] = hi
		}
	}
	stats := make([]spanStat, len(r.names))
	for i, nm := range r.names {
		stats[i].Name = nm
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.end < s.start {
			continue
		}
		st := &stats[s.name]
		st.Count++
		st.Children += kids[i]
		st.Descendants += desc[i]
		st.TotalNs += s.end - s.start
		st.SelfNs += s.end - s.start - covered[i]
	}
	return stats
}

// mergeStats sums the per-name statistics of several tracks.
func mergeStats(tracks ...[]spanStat) map[string]spanStat {
	out := make(map[string]spanStat)
	for _, t := range tracks {
		for _, s := range t {
			if s.Count == 0 {
				continue
			}
			m := out[s.Name]
			m.Name = s.Name
			m.Count += s.Count
			m.Children += s.Children
			m.Descendants += s.Descendants
			m.TotalNs += s.TotalNs
			m.SelfNs += s.SelfNs
			out[s.Name] = m
		}
	}
	return out
}

// sortedStats lists merged statistics by descending self time, the order a
// reader hunting for cost wants.
func sortedStats(m map[string]spanStat) []spanStat {
	out := make([]spanStat, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}
