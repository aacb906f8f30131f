package sched

import "sfcsched/internal/core"

// scanRT (Kamel & Ito) keeps the queue in scan order and inserts an
// arriving request at its scan position only when doing so would not push
// any already-queued request past its deadline; otherwise the arrival is
// appended to the tail. Dispatch simply pops the queue front.
type scanRT struct {
	ordered
	est Estimator
}

// NewSCANRT returns a SCAN-RT scheduler using est for deadline-feasibility
// estimates.
func NewSCANRT(est Estimator) Scheduler { return &scanRT{est: est} }

// Name implements Scheduler.
func (s *scanRT) Name() string { return "scan-rt" }

// Add implements Scheduler.
func (s *scanRT) Add(r *core.Request, now int64, head int) {
	q := s.Live()
	p := scanPos(q, r, head)
	if !feasible(s.est, q, p, r, now, head) {
		p = len(q)
	}
	s.InsertAt(p, keyed{r: r})
}

// Next implements Scheduler.
func (s *scanRT) Next(now int64, head int) *core.Request {
	if s.Len() == 0 {
		return nil
	}
	return s.RemoveAt(0).r
}

// scanPos returns r's position in q in upward-sweep order (cyclic
// distance ahead of the head): before the first request farther ahead.
func scanPos(q []keyed, r *core.Request, head int) int {
	k := ahead(r.Cylinder, head)
	for i, e := range q {
		if ahead(e.r.Cylinder, head) > k {
			return i
		}
	}
	return len(q)
}

// feasible simulates serving q with r inserted at index p, in order from
// (now, head) with est, and reports whether every deadline is met at
// service start.
func feasible(est Estimator, q []keyed, p int, r *core.Request, now int64, head int) bool {
	t, h := now, head
	for i := 0; i <= len(q); i++ {
		x := r
		if i < p {
			x = q[i].r
		} else if i > p {
			x = q[i-1].r
		}
		if t > effDeadline(x) {
			return false
		}
		t += est(h, x.Cylinder, x.Size)
		h = x.Cylinder
	}
	return true
}
