package sched

// NewFDSCAN returns a feasible-deadline-scan scheduler (Abbott &
// Garcia-Molina). It aims the sweep at the request with the earliest
// *feasible* deadline — one the head can still reach in time, by est —
// and serves requests encountered en route. When no deadline is feasible
// it aims at the earliest deadline. A deadline met exactly (now plus the
// estimate equal to it) is feasible.
//
// Its pick stays linear in the queue depth whatever index the queue might
// keep: feasibility depends on the head and the clock, so every dispatch
// calls est once for every queued request.
func NewFDSCAN(est Estimator) Scheduler {
	return &picker{rule: &rule{name: "fd-scan", pick: func(q []keyed, now int64, head int) int {
		target := earliestFeasible(est, q, now, head)
		if target < 0 {
			target = earliestDeadline(q)
		}
		// Serve the pending request closest to the head on the way to the
		// target (the target itself qualifies).
		tc := q[target].r.Cylinder
		best, bestD := target, absDist(tc, head)
		for i, e := range q {
			c := e.r.Cylinder
			onRoute := (head <= c && c <= tc) || (tc <= c && c <= head)
			if onRoute && absDist(c, head) < bestD {
				best, bestD = i, absDist(c, head)
			}
		}
		return best
	}}}
}

// earliestFeasible returns the index of the request with the earliest
// deadline that the head can still meet by est, or -1.
func earliestFeasible(est Estimator, q []keyed, now int64, head int) int {
	best := -1
	for i, e := range q {
		r := e.r
		if now+est(head, r.Cylinder, r.Size) > effDeadline(r) {
			continue
		}
		if best < 0 || effDeadline(r) < effDeadline(q[best].r) {
			best = i
		}
	}
	return best
}
