package sched

import "sfcsched/internal/core"

// FCFS serves requests strictly in arrival order. It is maximally fair to
// request order and indifferent to everything else; the paper normalizes
// priority-inversion counts against it.
type FCFS struct {
	queue
}

// NewFCFS returns a first-come-first-served scheduler.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Scheduler.
func (s *FCFS) Name() string { return "fcfs" }

// Add implements Scheduler.
func (s *FCFS) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *FCFS) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	return s.removeAt(0)
}

// SSTF serves the request with the shortest seek distance from the current
// head position, recomputed at every dispatch.
type SSTF struct {
	queue
}

// NewSSTF returns a shortest-seek-time-first scheduler.
func NewSSTF() *SSTF { return &SSTF{} }

// Name implements Scheduler.
func (s *SSTF) Name() string { return "sstf" }

// Add implements Scheduler.
func (s *SSTF) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *SSTF) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	best := 0
	for i, r := range s.reqs[1:] {
		if absDist(r.Cylinder, head) < absDist(s.reqs[best].Cylinder, head) {
			best = i + 1
		}
	}
	return s.removeAt(best)
}

// SCAN is the elevator algorithm (LOOK variant): the head sweeps in one
// direction serving requests in cylinder order and reverses when no
// requests remain ahead.
type SCAN struct {
	queue
	up bool
}

// NewSCAN returns an elevator scheduler sweeping upward first.
func NewSCAN() *SCAN { return &SCAN{up: true} }

// Name implements Scheduler.
func (s *SCAN) Name() string { return "scan" }

// Add implements Scheduler.
func (s *SCAN) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *SCAN) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	if i := s.nearestAhead(head); i >= 0 {
		return s.removeAt(i)
	}
	// Nothing lies ahead, so after the reversal every request does.
	s.up = !s.up
	return s.removeAt(s.nearestAhead(head))
}

// nearestAhead returns the index of the closest request at or beyond the
// head in the current direction, or -1.
func (s *SCAN) nearestAhead(head int) int {
	best, bestD := -1, int(^uint(0)>>1)
	for i, r := range s.reqs {
		var d int
		if s.up {
			d = r.Cylinder - head
		} else {
			d = head - r.Cylinder
		}
		if d >= 0 && d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// CSCAN is the circular elevator: the head sweeps upward only, wrapping to
// the lowest pending cylinder when none remain ahead. Service order within
// one sweep equals increasing cyclic distance ahead of the head.
type CSCAN struct {
	queue
}

// NewCSCAN returns a circular-scan scheduler.
func NewCSCAN() *CSCAN { return &CSCAN{} }

// Name implements Scheduler.
func (s *CSCAN) Name() string { return "cscan" }

// Add implements Scheduler.
func (s *CSCAN) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *CSCAN) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	return s.removeAt(s.sweepNext(head))
}
