package sched

import "sfcsched/internal/core"

// NewEDF returns an earliest-deadline-first scheduler (Liu & Layland),
// which ignores head position entirely. Ties break by arrival order.
func NewEDF() Scheduler { return &picker{rule: &ruleEDF} }

var ruleEDF = rule{name: "edf", key: deadlineKey, pick: front}

// NewSCANEDF returns a SCAN-EDF scheduler (Reddy & Wyllie), which serves
// requests in deadline order, breaking deadline ties in scan order: the
// nearest request cyclically ahead of the head, then the earliest queued.
// Deadlines are quantized into batches of quantum microseconds so that the
// tie-break has requests to work with; quantum = 0 compares exact
// deadlines (degenerating to EDF with a seek tie-break).
func NewSCANEDF(quantum int64) Scheduler { return &picker{rule: &ruleSCANEDF, arg: quantum} }

var ruleSCANEDF = rule{name: "scan-edf", key: batchKey, pick: sweepRun}

// batchKey keys a request by its deadline's batch of quantum microseconds.
func batchKey(r *core.Request, quantum int64) int64 {
	if quantum > 0 {
		return effDeadline(r) / quantum
	}
	return effDeadline(r)
}
