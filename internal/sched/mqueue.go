package sched

import "sfcsched/internal/core"

// MultiQueue (Carey, Jauhari & Livny) keeps one queue per priority level
// and always serves the highest non-empty level; within a level requests
// are served in scan order. The request's Priorities[0] selects the level
// (0 = highest).
type MultiQueue struct {
	levels []queue
	n      int
	// Level extracts the queue level of a request (0 = highest priority).
	// Defaults to the first priority dimension; the §4.3 extension
	// replaces it with an SFC1 collapse of all dimensions.
	Level func(*core.Request) int
}

// NewMultiQueue returns a multi-queue scheduler with the given number of
// priority levels.
func NewMultiQueue(levels int) *MultiQueue {
	if levels < 1 {
		levels = 1
	}
	return &MultiQueue{levels: make([]queue, levels), Level: priorityOf}
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

// level clamps the configured level function's result into range.
func (s *MultiQueue) level(r *core.Request) int {
	return min(max(s.Level(r), 0), len(s.levels)-1)
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
		// Scan order within the level: nearest cyclically ahead.
		best, bestD := 0, int(^uint(0)>>1)
		for j, r := range q.reqs {
			d := r.Cylinder - head
			if d < 0 {
				d += 1 << 30
			}
			if d < bestD {
				best, bestD = j, d
			}
		}
		s.n--
		return q.removeAt(best)
	}
	return nil
}

// BUCKET (Haritsa, Carey & Livny) partitions requests into buckets by
// application value and serves the highest-value bucket first, EDF within a
// bucket. It ignores head position (it was designed for transaction
// scheduling), which is exactly the weakness the paper's SFC3 stage fixes.
type BUCKET struct {
	buckets map[int]*queue
	order   []int // distinct values, maintained sorted descending
	n       int
}

// NewBUCKET returns a value-bucket scheduler.
func NewBUCKET() *BUCKET { return &BUCKET{buckets: map[int]*queue{}} }

// Name implements Scheduler.
func (s *BUCKET) Name() string { return "bucket" }

// Len implements Scheduler.
func (s *BUCKET) Len() int { return s.n }

// Each implements Scheduler.
func (s *BUCKET) Each(visit func(*core.Request)) {
	for _, v := range s.order {
		s.buckets[v].Each(visit)
	}
}

// Add implements Scheduler.
func (s *BUCKET) Add(r *core.Request, now int64, head int) {
	q, ok := s.buckets[r.Value]
	if !ok {
		q = &queue{}
		s.buckets[r.Value] = q
		s.insertValue(r.Value)
	}
	q.add(r)
	s.n++
}

func (s *BUCKET) insertValue(v int) {
	i := 0
	for i < len(s.order) && s.order[i] > v {
		i++
	}
	s.order = append(s.order, 0)
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = v
}

// Next implements Scheduler.
func (s *BUCKET) Next(now int64, head int) *core.Request {
	for _, v := range s.order {
		q := s.buckets[v]
		if q.Len() == 0 {
			continue
		}
		best := 0
		for i, r := range q.reqs[1:] {
			if effDeadline(r) < effDeadline(q.reqs[best]) {
				best = i + 1
			}
		}
		s.n--
		return q.removeAt(best)
	}
	return nil
}
