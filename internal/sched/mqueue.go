package sched

import "sfcsched/internal/core"

// MultiQueue (Carey, Jauhari & Livny) keeps one queue per priority level
// and always serves the highest non-empty level; within a level requests
// are served in scan order. The request's Priorities[0] selects the level
// (0 = highest).
type MultiQueue struct {
	levels []queue
	n      int
}

// NewMultiQueue returns a multi-queue scheduler with the given number of
// priority levels.
func NewMultiQueue(levels int) *MultiQueue {
	if levels < 1 {
		levels = 1
	}
	return &MultiQueue{levels: make([]queue, levels)}
}

// Name implements Scheduler.
func (s *MultiQueue) Name() string { return "multi-queue" }

// Len implements Scheduler.
func (s *MultiQueue) Len() int { return s.n }

// Each implements Scheduler.
func (s *MultiQueue) Each(visit func(*core.Request)) {
	for i := range s.levels {
		s.levels[i].Each(visit)
	}
}

// level clamps the request's primary priority into range.
func (s *MultiQueue) level(r *core.Request) int {
	return min(max(priorityOf(r), 0), len(s.levels)-1)
}

// Add implements Scheduler.
func (s *MultiQueue) Add(r *core.Request, now int64, head int) {
	s.levels[s.level(r)].add(r)
	s.n++
}

// Next implements Scheduler.
func (s *MultiQueue) Next(now int64, head int) *core.Request {
	for i := range s.levels {
		q := &s.levels[i]
		if q.Len() == 0 {
			continue
		}
		// Scan order within the level.
		s.n--
		return q.removeAt(q.sweepNext(head))
	}
	return nil
}
