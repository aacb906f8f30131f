package sched

import "sfcsched/internal/core"

// NewFCFS returns a first-come-first-served scheduler, which serves
// requests strictly in arrival order. It is maximally fair to request
// order and indifferent to everything else; the paper normalizes
// priority-inversion counts against it.
func NewFCFS() Scheduler {
	return &picker{name: "fcfs", pick: func([]*core.Request, int64, int) int { return 0 }}
}

// NewSSTF returns a shortest-seek-time-first scheduler, which serves the
// request nearest the head, recomputed at every dispatch; the earliest
// queued wins a tie.
func NewSSTF() Scheduler {
	return &picker{name: "sstf", pick: func(reqs []*core.Request, _ int64, head int) int {
		best, bestD := 0, absDist(reqs[0].Cylinder, head)
		for i, r := range reqs {
			if d := absDist(r.Cylinder, head); d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}}
}

// NewCSCAN returns a circular-scan scheduler: the head sweeps upward only,
// wrapping to the lowest pending cylinder when none remain ahead, so
// service order within one sweep is increasing cyclic distance ahead of
// the head.
func NewCSCAN() Scheduler { return &picker{name: "cscan", pick: sweepNext} }

// scan is the elevator algorithm (LOOK variant): the head sweeps in one
// direction serving requests in cylinder order and reverses when no
// requests remain ahead.
type scan struct {
	queue
	up bool
}

// NewSCAN returns an elevator scheduler sweeping upward first.
func NewSCAN() Scheduler { return &scan{up: true} }

// Name implements Scheduler.
func (s *scan) Name() string { return "scan" }

// Add implements Scheduler.
func (s *scan) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *scan) Next(now int64, head int) *core.Request {
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
func (s *scan) nearestAhead(head int) int {
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
