// Package sched implements the baseline disk schedulers the paper compares
// against (and generalizes): FCFS, SSTF, SCAN, C-SCAN, EDF, SCAN-EDF,
// FD-SCAN, SCAN-RT, SSEDO, SSEDV, the multi-queue priority scheduler, and
// the deadline-driven multi-priority algorithm of Kamel et al. (ICDE 2000).
//
// A baseline is one criterion (§4.2). Eight of the twelve append at Add and
// choose at Next, so each of them is a name and a pick kernel over the
// queue, the clock and the head, run by one picker type. SCAN, SCAN-EDF,
// SCAN-RT and Kamel keep state beyond their queue and have a type each.
// Every constructor returns the Scheduler interface, which core.Scheduler
// (the Cascaded-SFC scheduler) also satisfies, so the simulator can drive
// any of them interchangeably. Policies (policy.go) lists the twelve by
// name.
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
// that scan their queue at dispatch time, and by SCAN-RT, which keeps it
// in service order and pops the front. For the queue depths the paper
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

// picker is a baseline that queues in arrival order and decides only at
// dispatch: pick returns the index to serve from a non-empty queue, given
// the clock and the head.
type picker struct {
	queue
	name string
	pick func(reqs []*core.Request, now int64, head int) int
}

// Name implements Scheduler.
func (s *picker) Name() string { return s.name }

// Add implements Scheduler.
func (s *picker) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *picker) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	return s.removeAt(s.pick(s.reqs, now, head))
}

// sweepNext returns the index of the request nearest cyclically ahead of
// the head, the earliest queued on a tie. reqs must not be empty.
func sweepNext(reqs []*core.Request, _ int64, head int) int {
	best, bestD := 0, int(^uint(0)>>1)
	for i, r := range reqs {
		if d := ahead(r.Cylinder, head); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// earliestDeadline returns the index of the request with the earliest
// deadline, the earliest queued on a tie. reqs must not be empty.
func earliestDeadline(reqs []*core.Request, _ int64, _ int) int {
	best, bestD := 0, effDeadline(reqs[0])
	for i, r := range reqs {
		if d := effDeadline(r); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// ahead is cylinder c's distance ahead of the head on an upward sweep; a
// cylinder behind the head waits for the next sweep, 2^30 further on.
func ahead(c, head int) int {
	d := c - head
	if d < 0 {
		d += 1 << 30
	}
	return d
}

// priorityOf returns the request's primary priority level (0 = highest).
func priorityOf(r *core.Request) int {
	if len(r.Priorities) == 0 {
		return 0
	}
	return r.Priorities[0]
}

// effDeadline treats "no deadline" as infinitely far away.
func effDeadline(r *core.Request) int64 {
	if r.Deadline == 0 {
		return 1 << 62
	}
	return r.Deadline
}

// absDist returns |a - b|. This form compiles to a conditional move: the
// SSTF kernel calls it once per queued request, where the sign is a coin
// a branch predictor would lose.
func absDist(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d
}
