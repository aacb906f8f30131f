// Package sched implements the baseline disk schedulers the paper compares
// against (and generalizes): FCFS, SSTF, SCAN, C-SCAN, EDF, SCAN-EDF,
// FD-SCAN, SCAN-RT, SSEDO, SSEDV, the multi-queue priority scheduler, the
// BUCKET value scheduler, and the deadline-driven multi-priority algorithm
// of Kamel et al. (ICDE 2000).
//
// All schedulers share the Scheduler interface, which core.Scheduler (the
// Cascaded-SFC scheduler) also satisfies, so the simulator can drive any of
// them interchangeably. Policies (policy.go) lists the thirteen by name.
package sched

import (
	"sfcsched/internal/core"
)

// Scheduler is a disk-request queue discipline. Add and Next receive the
// current simulation time (microseconds) and head cylinder so schedulers
// can make position- and deadline-aware decisions.
type Scheduler interface {
	// Name returns a display name.
	Name() string
	// Add enqueues a request.
	Add(r *core.Request, now int64, head int)
	// Next removes and returns the next request to serve, or nil if empty.
	Next(now int64, head int) *core.Request
	// Len returns the number of queued requests.
	Len() int
	// Each visits every queued request in unspecified order.
	Each(visit func(*core.Request))
}

// Estimator predicts the service time of a request at cylinder cyl of the
// given size with the head at cylinder head. Feasibility-testing schedulers
// (FD-SCAN, SCAN-RT, Kamel) need one; disk.Model.ServiceTime satisfies it.
type Estimator func(head, cyl int, size int64) int64

// queue is the shared slice-backed request store used by the schedulers
// that scan their queue at dispatch time. For the queue depths the paper
// simulates (tens to a few hundred requests) linear scans beat the constant
// factors of heap bookkeeping and keep every policy trivially auditable.
type queue struct {
	reqs []*core.Request
}

func (q *queue) add(r *core.Request) { q.reqs = append(q.reqs, r) }
func (q *queue) Len() int            { return len(q.reqs) }
func (q *queue) Each(visit func(r *core.Request)) {
	for _, r := range q.reqs {
		visit(r)
	}
}

// removeAt removes and returns the request at index i. The vacated tail
// slot is nilled out so served requests become collectible under long
// traces instead of being pinned by the slice's spare capacity.
func (q *queue) removeAt(i int) *core.Request {
	r := q.reqs[i]
	last := len(q.reqs) - 1
	copy(q.reqs[i:], q.reqs[i+1:])
	q.reqs[last] = nil
	q.reqs = q.reqs[:last]
	return r
}

// effDeadline treats "no deadline" as infinitely far away.
func effDeadline(r *core.Request) int64 {
	if r.Deadline == 0 {
		return 1 << 62
	}
	return r.Deadline
}

// absDist returns |a - b|.
func absDist(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}
