package sched

import "sfcsched/internal/core"

// kamel implements the deadline-driven multi-priority algorithm of Kamel,
// Niranjan & Ghandeharizadeh (ICDE 2000), the paper's reference [12]: an
// arriving request is inserted at its scan position when that keeps every
// queued deadline feasible; otherwise the scheduler moves the lowest
// priority queued request to the tail and retries, so deadline pressure is
// absorbed by the least important work. Tail-parked requests stay out of
// the scan order and are served only after the active queue drains.
type kamel struct {
	active []*core.Request // scan-ordered, feasibility-protected
	parked []*core.Request // sacrificed low-priority requests
	est    Estimator
}

// maxEvictions bounds the evict-and-retry loop per insertion.
const maxEvictions = 8

// NewKamel returns the deadline-driven multi-priority scheduler.
func NewKamel(est Estimator) Scheduler { return &kamel{est: est} }

// Name implements Scheduler.
func (s *kamel) Name() string { return "kamel" }

// Len implements Scheduler.
func (s *kamel) Len() int { return len(s.active) + len(s.parked) }

// Each implements Scheduler.
func (s *kamel) Each(visit func(*core.Request)) {
	for _, r := range s.active {
		visit(r)
	}
	for _, r := range s.parked {
		visit(r)
	}
}

// Add implements Scheduler.
func (s *kamel) Add(r *core.Request, now int64, head int) {
	for ev := 0; ; ev++ {
		cand := scanInsert(s.active, r, head)
		if feasible(s.est, cand, now, head) || ev >= maxEvictions || len(s.active) == 0 {
			s.active = cand
			return
		}
		// Park the lowest-priority active request at the tail and retry.
		low := 0
		for i, q := range s.active {
			if priorityOf(q) > priorityOf(s.active[low]) {
				low = i
			}
		}
		victim := s.active[low]
		s.active = append(s.active[:low], s.active[low+1:]...)
		s.parked = append(s.parked, victim)
	}
}

// Next implements Scheduler.
func (s *kamel) Next(now int64, head int) *core.Request {
	if len(s.active) > 0 {
		r := s.active[0]
		s.active = s.active[1:]
		return r
	}
	if len(s.parked) > 0 {
		r := s.parked[0]
		s.parked = s.parked[1:]
		return r
	}
	return nil
}
