package sched

import "sfcsched/internal/core"

// NewMultiQueue returns a multi-queue priority scheduler (Carey, Jauhari &
// Livny) with the given number of priority levels. It always serves the
// highest non-empty level, in scan order within it. A request's
// Priorities[0], clamped into range, selects its level (0 = highest).
//
// One queue holds every level: the kernel picks the lowest level, then
// the nearest request cyclically ahead, then the earliest queued, which
// is the order one queue per level would serve.
func NewMultiQueue(levels int) Scheduler {
	levels = max(levels, 1)
	return &picker{name: "multi-queue", pick: func(reqs []*core.Request, _ int64, head int) int {
		best, bestLevel, bestD := 0, levels, 0
		for i, r := range reqs {
			level := min(max(priorityOf(r), 0), levels-1)
			if d := ahead(r.Cylinder, head); level < bestLevel || level == bestLevel && d < bestD {
				best, bestLevel, bestD = i, level, d
			}
		}
		return best
	}}
}
