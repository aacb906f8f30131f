// Package sched implements the baseline disk schedulers the paper compares
// against (and generalizes): FCFS, SSTF, SCAN, C-SCAN, EDF, SCAN-EDF,
// FD-SCAN, SCAN-RT, SSEDO, SSEDV, the multi-queue priority scheduler, and
// the deadline-driven multi-priority algorithm of Kamel et al. (ICDE 2000).
//
// A baseline is one criterion (§4.2). Nine of the twelve are a name, a key
// and a pick kernel, run by one picker type: Add files a request by its
// key after every equal key, and Next serves the index the kernel picks
// from the key-ordered queue, the clock and the head. FCFS and EDF pop
// the front; SCAN-EDF and multi-queue sweep the first run of equal keys
// (quantized deadline, clamped level); SSEDO and SSEDV score the first
// five by deadline. SSTF, C-SCAN and FD-SCAN have no key, so their queue
// is in arrival order and their kernels read all of it. SCAN, SCAN-RT and
// Kamel keep state beyond a key order and have a type each, on the same
// store: core.Gapped, the slice with a gap at the front that the
// simulator's queue view shifts in too. This package keeps only its key
// search.
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

// keyed is a queued request and the key it is ordered by.
type keyed struct {
	key int64
	r   *core.Request
}

// ordered is a request queue on core's gapped store, so an insert or a
// removal shifts only the shorter side. The pickers keep it sorted by key,
// SCAN in arrival order, SCAN-RT and Kamel in service order.
type ordered struct {
	core.Gapped[keyed]
}

// Each implements Scheduler; it visits in queue order.
func (q *ordered) Each(visit func(*core.Request)) {
	for _, e := range q.Live() {
		visit(e.r)
	}
}

// insert queues r with key k after every queued request whose key is at
// most k, so requests with equal keys stay in arrival order. The queue
// must be sorted by key.
func (q *ordered) insert(k int64, r *core.Request) {
	live := q.Live()
	p := len(live)
	if p > 0 && k < live[p-1].key {
		// The first index whose key exceeds k lies in live[base:base+n],
		// and live[p-1] exceeds k. Halving moves base only by a
		// conditional add, which compiles without a branch.
		base, n := 0, p
		for n > 1 {
			half := n >> 1
			if live[base+half-1].key <= k {
				base += half
			}
			n -= half
		}
		p = base
	}
	q.InsertAt(p, keyed{k, r})
}

// rule is what a picker runs: a name, a key and a pick. key maps a
// request and the picker's arg to its key (nil: every key 0, so the queue
// is in arrival order); pick returns the index to serve from the
// non-empty queue, given the clock and the head.
type rule struct {
	name string
	key  func(r *core.Request, arg int64) int64
	pick func(q []keyed, now int64, head int) int
}

// picker is a baseline that serves from the front of one key order. Its
// rule is shared by every instance of the policy, so a fresh picker is
// its queue, a pointer and the key's parameter: 48 bytes, where the rule's
// three fields inline would make it 72 and cost sim-fleet's one-request
// cell, which builds 13 fresh SCAN-EDF schedulers, about 1 % in latency.
type picker struct {
	ordered
	*rule
	arg int64
}

// Name implements Scheduler.
func (s *picker) Name() string { return s.name }

// Add implements Scheduler.
func (s *picker) Add(r *core.Request, now int64, head int) {
	if s.key == nil {
		s.InsertAt(s.Len(), keyed{r: r})
		return
	}
	s.insert(s.key(r, s.arg), r)
}

// Next implements Scheduler.
func (s *picker) Next(now int64, head int) *core.Request {
	q := s.Live()
	if len(q) == 0 {
		return nil
	}
	return s.RemoveAt(s.pick(q, now, head)).r
}

// front picks the head of the key order.
func front([]keyed, int64, int) int { return 0 }

// sweepRun returns the index of the request nearest cyclically ahead of
// the head among the first run of equal keys, the earliest queued on a
// tie. q must not be empty.
func sweepRun(q []keyed, _ int64, head int) int {
	k := q[0].key
	best, bestD := 0, int(^uint(0)>>1)
	for i, e := range q {
		if e.key != k {
			break
		}
		if d := ahead(e.r.Cylinder, head); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// earliestDeadline returns the index of the request with the earliest
// deadline, the earliest queued on a tie. q must not be empty.
func earliestDeadline(q []keyed) int {
	best, bestD := 0, effDeadline(q[0].r)
	for i, e := range q {
		if d := effDeadline(e.r); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// deadlineKey keys a request by its deadline.
func deadlineKey(r *core.Request, _ int64) int64 { return effDeadline(r) }

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
