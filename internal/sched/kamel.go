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
	active ordered // scan-ordered, feasibility-protected
	parked ordered // sacrificed low-priority requests
	est    Estimator
}

// maxEvictions bounds the evict-and-retry loop per insertion.
const maxEvictions = 8

// NewKamel returns the deadline-driven multi-priority scheduler.
func NewKamel(est Estimator) Scheduler { return &kamel{est: est} }

// Name implements Scheduler.
func (s *kamel) Name() string { return "kamel" }

// Len implements Scheduler.
func (s *kamel) Len() int { return s.active.Len() + s.parked.Len() }

// Each implements Scheduler.
func (s *kamel) Each(visit func(*core.Request)) {
	s.active.Each(visit)
	s.parked.Each(visit)
}

// Add implements Scheduler.
func (s *kamel) Add(r *core.Request, now int64, head int) {
	for ev := 0; ; ev++ {
		q := s.active.Live()
		p := scanPos(q, r, head)
		if feasible(s.est, q, p, r, now, head) || ev >= maxEvictions || len(q) == 0 {
			s.active.InsertAt(p, keyed{r: r})
			return
		}
		// Park the lowest-priority active request at the tail and retry.
		low := 0
		for i, e := range q {
			if priorityOf(e.r) > priorityOf(q[low].r) {
				low = i
			}
		}
		s.parked.InsertAt(s.parked.Len(), s.active.RemoveAt(low))
	}
}

// Next implements Scheduler.
func (s *kamel) Next(now int64, head int) *core.Request {
	if s.active.Len() > 0 {
		return s.active.RemoveAt(0).r
	}
	if s.parked.Len() > 0 {
		return s.parked.RemoveAt(0).r
	}
	return nil
}
