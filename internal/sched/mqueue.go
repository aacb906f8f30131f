package sched

import "sfcsched/internal/core"

// NewMultiQueue returns a multi-queue priority scheduler (Carey, Jauhari &
// Livny) with the given number of priority levels. It always serves the
// highest non-empty level, in scan order within it. A request's
// Priorities[0], clamped into range, selects its level (0 = highest).
//
// One queue ordered by level holds every level: the first run is the
// highest non-empty level in arrival order, and the sweep serves its
// nearest request cyclically ahead, then its earliest queued, which is
// the order one queue per level would serve.
func NewMultiQueue(levels int) Scheduler {
	return &picker{rule: &ruleMultiQueue, arg: int64(max(levels, 1))}
}

var ruleMultiQueue = rule{name: "multi-queue", key: levelKey, pick: sweepRun}

// levelKey keys a request by its primary level clamped into [0, levels).
func levelKey(r *core.Request, levels int64) int64 {
	return min(max(int64(priorityOf(r)), 0), levels-1)
}
