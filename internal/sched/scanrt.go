package sched

import "sfcsched/internal/core"

// SCANRT (Kamel & Ito) keeps the queue in scan order and inserts an
// arriving request at its scan position only when doing so would not push
// any already-queued request past its deadline; otherwise the arrival is
// appended to the tail. Dispatch simply pops the queue front.
type SCANRT struct {
	reqs []*core.Request
	est  Estimator
}

// NewSCANRT returns a SCAN-RT scheduler using est for deadline-feasibility
// estimates.
func NewSCANRT(est Estimator) *SCANRT { return &SCANRT{est: est} }

// Name implements Scheduler.
func (s *SCANRT) Name() string { return "scan-rt" }

// Len implements Scheduler.
func (s *SCANRT) Len() int { return len(s.reqs) }

// Each implements Scheduler.
func (s *SCANRT) Each(visit func(*core.Request)) {
	for _, r := range s.reqs {
		visit(r)
	}
}

// Add implements Scheduler.
func (s *SCANRT) Add(r *core.Request, now int64, head int) {
	if cand := scanInsert(s.reqs, r, head); feasible(s.est, cand, now, head) {
		s.reqs = cand
		return
	}
	s.reqs = append(s.reqs, r)
}

// scanInsert returns a new queue: reqs with r inserted at its position in
// upward-sweep order (cyclic distance ahead of the head).
func scanInsert(reqs []*core.Request, r *core.Request, head int) []*core.Request {
	key := func(c int) int {
		d := c - head
		if d < 0 {
			d += 1 << 30
		}
		return d
	}
	k := key(r.Cylinder)
	pos := len(reqs)
	for i, q := range reqs {
		if key(q.Cylinder) > k {
			pos = i
			break
		}
	}
	cand := make([]*core.Request, 0, len(reqs)+1)
	cand = append(cand, reqs[:pos]...)
	cand = append(cand, r)
	return append(cand, reqs[pos:]...)
}

// feasible simulates serving reqs in order from (now, head) with est and
// reports whether every deadline is met at service start.
func feasible(est Estimator, reqs []*core.Request, now int64, head int) bool {
	t := now
	h := head
	for _, r := range reqs {
		if t > effDeadline(r) {
			return false
		}
		t += est(h, r.Cylinder, r.Size)
		h = r.Cylinder
	}
	return true
}

// Next implements Scheduler.
func (s *SCANRT) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	r := s.reqs[0]
	s.reqs = s.reqs[1:]
	return r
}
