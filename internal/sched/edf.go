package sched

import "sfcsched/internal/core"

// EDF serves the request with the earliest deadline first (Liu & Layland),
// ignoring head position entirely. Ties break by arrival order.
type EDF struct {
	queue
}

// NewEDF returns an earliest-deadline-first scheduler.
func NewEDF() *EDF { return &EDF{} }

// Name implements Scheduler.
func (s *EDF) Name() string { return "edf" }

// Add implements Scheduler.
func (s *EDF) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *EDF) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	best := 0
	for i, r := range s.reqs[1:] {
		if effDeadline(r) < effDeadline(s.reqs[best]) {
			best = i + 1
		}
	}
	return s.removeAt(best)
}

// SCANEDF (Reddy & Wyllie) serves requests in deadline order, breaking
// deadline ties in scan order. Deadlines are quantized into batches of
// Quantum microseconds so that the tie-break has requests to work with;
// Quantum = 0 compares exact deadlines (degenerating to EDF with a seek
// tie-break).
type SCANEDF struct {
	queue
	// Quantum groups deadlines into batches; requests whose deadlines fall
	// in the same batch are served in scan order. A request's batch is
	// fixed when it is added, so Quantum must not change while requests
	// are queued.
	Quantum int64
	// batches[i] is the quantized deadline of reqs[i], computed once at
	// Add so that Next's scans compare integers instead of dividing.
	batches []int64
}

// NewSCANEDF returns a SCAN-EDF scheduler with the given deadline quantum.
func NewSCANEDF(quantum int64) *SCANEDF { return &SCANEDF{Quantum: quantum} }

// Name implements Scheduler.
func (s *SCANEDF) Name() string { return "scan-edf" }

// Add implements Scheduler.
func (s *SCANEDF) Add(r *core.Request, now int64, head int) {
	s.add(r)
	b := effDeadline(r)
	if s.Quantum > 0 {
		b /= s.Quantum
	}
	s.batches = append(s.batches, b)
}

// Next implements Scheduler.
func (s *SCANEDF) Next(now int64, head int) *core.Request {
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
		key := r.Cylinder - head
		if key < 0 {
			key += 1 << 30 // behind the head: serve after the ones ahead
		}
		if key < bestKey {
			best, bestKey = i, key
		}
	}
	s.batches = append(s.batches[:best], s.batches[best+1:]...)
	return s.removeAt(best)
}
