package sched

import "sfcsched/internal/core"

// NewFCFS returns a first-come-first-served scheduler, which serves
// requests strictly in arrival order. It is maximally fair to request
// order and indifferent to everything else; the paper normalizes
// priority-inversion counts against it.
func NewFCFS() Scheduler { return &picker{rule: &ruleFCFS} }

var ruleFCFS = rule{name: "fcfs", pick: front}

// NewSSTF returns a shortest-seek-time-first scheduler, which serves the
// request nearest the head, recomputed at every dispatch; the earliest
// queued wins a tie.
func NewSSTF() Scheduler { return &picker{rule: &ruleSSTF} }

var ruleSSTF = rule{name: "sstf", pick: func(q []keyed, _ int64, head int) int {
	best, bestD := 0, absDist(q[0].r.Cylinder, head)
	for i, e := range q {
		if d := absDist(e.r.Cylinder, head); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}}

// NewCSCAN returns a circular-scan scheduler: the head sweeps upward only,
// wrapping to the lowest pending cylinder when none remain ahead, so
// service order within one sweep is increasing cyclic distance ahead of
// the head.
func NewCSCAN() Scheduler { return &picker{rule: &ruleCSCAN} }

var ruleCSCAN = rule{name: "cscan", pick: sweepRun}

// scan is the elevator algorithm (LOOK variant): the head sweeps in one
// direction serving requests in cylinder order and reverses when no
// requests remain ahead.
type scan struct {
	ordered
	up bool
}

// NewSCAN returns an elevator scheduler sweeping upward first.
func NewSCAN() Scheduler { return &scan{up: true} }

// Name implements Scheduler.
func (s *scan) Name() string { return "scan" }

// Add implements Scheduler.
func (s *scan) Add(r *core.Request, now int64, head int) { s.InsertAt(s.Len(), keyed{r: r}) }

// Next implements Scheduler.
func (s *scan) Next(now int64, head int) *core.Request {
	if s.Len() == 0 {
		return nil
	}
	if i := s.nearestAhead(head); i >= 0 {
		return s.RemoveAt(i).r
	}
	// Nothing lies ahead, so after the reversal every request does.
	s.up = !s.up
	return s.RemoveAt(s.nearestAhead(head)).r
}

// nearestAhead returns the index of the closest request at or beyond the
// head in the current direction, or -1.
func (s *scan) nearestAhead(head int) int {
	dir := 1
	if !s.up {
		dir = -1
	}
	q := s.Live()
	best, bestD := -1, uint(1)<<63
	for i := range q {
		// A request behind the head has d < 0, which converts to at
		// least 2^63 and so never wins.
		if d := uint((q[i].r.Cylinder - head) * dir); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
