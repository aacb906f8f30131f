package sched

import "sfcsched/internal/core"

// NewEDF returns an earliest-deadline-first scheduler (Liu & Layland),
// which ignores head position entirely. Ties break by arrival order.
func NewEDF() Scheduler { return &picker{name: "edf", pick: earliestDeadline} }

// scanEDF (Reddy & Wyllie) serves requests in deadline order, breaking
// deadline ties in scan order. Deadlines are quantized into batches of
// quantum microseconds so that the tie-break has requests to work with;
// quantum = 0 compares exact deadlines (degenerating to EDF with a seek
// tie-break).
type scanEDF struct {
	queue
	// quantum groups deadlines into batches; requests whose deadlines fall
	// in the same batch are served in scan order.
	quantum int64
	// batches[i] is the quantized deadline of reqs[i], computed once at
	// Add so that Next's scans compare integers instead of dividing.
	batches []int64
}

// NewSCANEDF returns a SCAN-EDF scheduler with the given deadline quantum.
func NewSCANEDF(quantum int64) Scheduler { return &scanEDF{quantum: quantum} }

// Name implements Scheduler.
func (s *scanEDF) Name() string { return "scan-edf" }

// Add implements Scheduler.
func (s *scanEDF) Add(r *core.Request, now int64, head int) {
	s.add(r)
	b := effDeadline(r)
	if s.quantum > 0 {
		b /= s.quantum
	}
	s.batches = append(s.batches, b)
}

// Next implements Scheduler.
func (s *scanEDF) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	// Find the earliest deadline batch, then the request within it that is
	// nearest ahead of the head (upward sweep), falling back to nearest
	// overall when the sweep has passed every batch member.
	batches := s.batches[:len(s.reqs)] // same length; tells the compiler so
	minBatch := batches[0]
	for _, b := range batches[1:] {
		if b < minBatch {
			minBatch = b
		}
	}
	best, bestKey := -1, int(^uint(0)>>1)
	for i, r := range s.reqs {
		if batches[i] != minBatch {
			continue
		}
		if key := ahead(r.Cylinder, head); key < bestKey {
			best, bestKey = i, key
		}
	}
	s.batches = append(s.batches[:best], s.batches[best+1:]...)
	return s.removeAt(best)
}
