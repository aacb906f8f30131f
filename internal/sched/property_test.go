package sched

import (
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sfc"
	"sfcsched/internal/stats"
)

// allSchedulers builds one instance of every scheduler in the package:
// the policy table and the Cascaded-SFC scheduler.
func allSchedulers() map[string]Scheduler {
	est := testEstimator()
	cascaded := core.MustScheduler("cascaded", core.EncapsulatorConfig{
		Curve1: sfc.MustNew("hilbert", 2, 8), Levels: 8,
		UseDeadline: true, F: 1, DeadlineHorizon: 1 << 40, DeadlineSpan: 700_000,
		UseCylinder: true, R: 3, Cylinders: 3832,
	}, core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true, ER: true}, 0.05)
	all := map[string]Scheduler{"cascaded": cascaded}
	for _, p := range Policies {
		all[p.Name] = p.New(est, 8)
	}
	return all
}

// TestAllSchedulersConserveRequests drives every scheduler with random
// interleaved add/dispatch traffic and verifies no request is lost,
// duplicated, or invented, and that Len never lies.
func TestAllSchedulersConserveRequests(t *testing.T) {
	for name, s := range allSchedulers() {
		rng := stats.NewRNG(1234)
		added := map[uint64]bool{}
		got := map[uint64]bool{}
		var id uint64
		now := int64(0)
		head := 0
		for step := 0; step < 2000; step++ {
			now += int64(rng.Uint64n(5_000))
			if rng.Float64() < 0.55 {
				id++
				added[id] = true
				s.Add(&core.Request{
					ID:         id,
					Priorities: []int{rng.Intn(8), rng.Intn(8)},
					Deadline:   now + int64(rng.Uint64n(700_000)) + 1,
					Cylinder:   rng.Intn(3832),
					Size:       16 << 10,
					Arrival:    now,
				}, now, head)
			} else if r := s.Next(now, head); r != nil {
				if got[r.ID] {
					t.Fatalf("%s: request %d dispatched twice", name, r.ID)
				}
				if !added[r.ID] {
					t.Fatalf("%s: request %d never added", name, r.ID)
				}
				got[r.ID] = true
				head = min(max(r.Cylinder, 0), 3831)
			}
			if want := len(added) - len(got); s.Len() != want {
				t.Fatalf("%s: Len = %d, want %d at step %d", name, s.Len(), want, step)
			}
		}
		for r := s.Next(now, head); r != nil; r = s.Next(now, head) {
			if got[r.ID] {
				t.Fatalf("%s: request %d dispatched twice in drain", name, r.ID)
			}
			got[r.ID] = true
		}
		if len(got) != len(added) {
			t.Errorf("%s: added %d, dispatched %d", name, len(added), len(got))
		}
	}
}

// TestAllSchedulersEachMatchesLen: Each must visit exactly Len requests,
// each at most once.
func TestAllSchedulersEachMatchesLen(t *testing.T) {
	for name, s := range allSchedulers() {
		rng := stats.NewRNG(77)
		for i := uint64(1); i <= 50; i++ {
			s.Add(&core.Request{
				ID: i, Priorities: []int{rng.Intn(8)}, Cylinder: rng.Intn(3832),
				Deadline: int64(rng.Uint64n(1_000_000)) + 1,
			}, 0, 0)
		}
		s.Next(0, 0)
		s.Next(0, 0)
		seen := map[uint64]int{}
		s.Each(func(r *core.Request) { seen[r.ID]++ })
		if len(seen) != s.Len() {
			t.Errorf("%s: Each visited %d, Len %d", name, len(seen), s.Len())
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("%s: request %d visited %d times", name, id, n)
			}
		}
	}
}

// TestSCANNeverPassesPendingInDirection: the elevator property — between
// two consecutive dispatches moving upward, no pending request's cylinder
// lies strictly between them (it would have been served on the way).
func TestSCANNeverPassesPendingInDirection(t *testing.T) {
	s := NewSCAN()
	rng := stats.NewRNG(42)
	for i := uint64(1); i <= 64; i++ {
		s.Add(&core.Request{ID: i, Cylinder: rng.Intn(3832)}, 0, 0)
	}
	head := 0
	prev := -1
	for r := s.Next(0, head); r != nil; r = s.Next(0, head) {
		if prev >= 0 && r.Cylinder > prev {
			// Upward move: nothing pending strictly inside (prev, cyl).
			s.Each(func(q *core.Request) {
				if q.Cylinder > prev && q.Cylinder < r.Cylinder {
					t.Fatalf("elevator passed cylinder %d moving %d -> %d", q.Cylinder, prev, r.Cylinder)
				}
			})
		}
		prev = r.Cylinder
		head = r.Cylinder
	}
}

// TestCSCANServesOneSweep: with a static queue, C-SCAN serves cylinders in
// strictly increasing cyclic-distance order from the initial head.
func TestCSCANServesOneSweep(t *testing.T) {
	s := NewCSCAN()
	rng := stats.NewRNG(9)
	for i := uint64(1); i <= 100; i++ {
		s.Add(&core.Request{ID: i, Cylinder: rng.Intn(3832)}, 0, 0)
	}
	start := 1700
	head := start
	prev := -1
	for r := s.Next(0, head); r != nil; r = s.Next(0, head) {
		d := (r.Cylinder - start + 3832) % 3832
		if d < prev {
			t.Fatalf("cyclic order violated: distance %d after %d", d, prev)
		}
		prev = d
		head = r.Cylinder
	}
}

// TestEDFDispatchesInDeadlineOrder on a static queue.
func TestEDFDispatchesInDeadlineOrder(t *testing.T) {
	s := NewEDF()
	rng := stats.NewRNG(10)
	for i := uint64(1); i <= 100; i++ {
		s.Add(&core.Request{ID: i, Deadline: int64(rng.Uint64n(1 << 30))}, 0, 0)
	}
	prev := int64(-1)
	for r := s.Next(0, 0); r != nil; r = s.Next(0, 0) {
		if r.Deadline < prev {
			t.Fatalf("deadline order violated: %d after %d", r.Deadline, prev)
		}
		prev = r.Deadline
	}
}

// TestMultiQueueNeverInvertsLevels on a static queue.
func TestMultiQueueNeverInvertsLevels(t *testing.T) {
	s := NewMultiQueue(8)
	rng := stats.NewRNG(11)
	for i := uint64(1); i <= 100; i++ {
		s.Add(&core.Request{ID: i, Priorities: []int{rng.Intn(8)}, Cylinder: rng.Intn(3832)}, 0, 0)
	}
	prev := -1
	head := 0
	for r := s.Next(0, head); r != nil; r = s.Next(0, head) {
		if r.Priorities[0] < prev {
			t.Fatalf("level order violated: %d after %d", r.Priorities[0], prev)
		}
		prev = r.Priorities[0]
		head = r.Cylinder
	}
}

// queue is the arrival-order request store the package kept before the
// ordered one; twoPassSCANEDF runs on it, unchanged.
type queue struct {
	reqs []*core.Request
}

func (q *queue) add(r *core.Request) { q.reqs = append(q.reqs, r) }
func (q *queue) Len() int            { return len(q.reqs) }

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

// Regression: queue.removeAt must nil out the vacated tail slot so the
// slice's spare capacity does not pin served requests in memory for the
// rest of a long trace.
func TestRemoveAtClearsVacatedSlot(t *testing.T) {
	q := &queue{}
	a, b, c := rq(1, 0, 0), rq(2, 0, 0), rq(3, 0, 0)
	q.add(a)
	q.add(b)
	q.add(c)
	if got := q.removeAt(1); got != b {
		t.Fatalf("removeAt(1) = %v, want request 2", got)
	}
	if q.Len() != 2 || q.reqs[0] != a || q.reqs[1] != c {
		t.Fatalf("queue after removal = %v, want [1 3]", q.reqs)
	}
	if tail := q.reqs[:3][2]; tail != nil {
		t.Errorf("vacated slot still references request %d", tail.ID)
	}
}

// twoPassSCANEDF is SCAN-EDF as it stood before requests carried their
// batch: Next quantizes every queued deadline in each of its two passes.
// Kept verbatim as the reference the keyed SCANEDF must pop identically to.
type twoPassSCANEDF struct {
	queue
	Quantum int64
}

func (s *twoPassSCANEDF) batch(r *core.Request) int64 {
	d := effDeadline(r)
	if s.Quantum <= 0 {
		return d
	}
	return d / s.Quantum
}

func (s *twoPassSCANEDF) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	minBatch := s.batch(s.reqs[0])
	for _, r := range s.reqs[1:] {
		if b := s.batch(r); b < minBatch {
			minBatch = b
		}
	}
	best, bestKey := -1, int(^uint(0)>>1)
	for i, r := range s.reqs {
		if s.batch(r) != minBatch {
			continue
		}
		key := r.Cylinder - head
		if key < 0 {
			key += 1 << 30 // behind the head: serve after the ones ahead
		}
		if key < bestKey {
			best, bestKey = i, key
		}
	}
	return s.removeAt(best)
}

// TestSCANEDFMatchesTwoPassReference drives the keyed SCANEDF and the
// reference through the same random Add/Next interleavings — few distinct
// cylinders so scan ties occur, deadlines that share batches, requests
// with no deadline — and requires the same request from every Next, and a
// queue that holds one key per queued request, its request's batch, in an
// order whose keys never decrease.
func TestSCANEDFMatchesTwoPassReference(t *testing.T) {
	for _, quantum := range []int64{0, 1, 50_000} {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := stats.NewRNG(seed)
			s, ref := NewSCANEDF(quantum).(*picker), &twoPassSCANEDF{Quantum: quantum}
			now, head := int64(0), 0
			step := func(add bool) {
				now += int64(rng.Uint64n(20_000))
				if add {
					r := &core.Request{Cylinder: rng.Intn(40) * 97, Arrival: now}
					if rng.Float64() < 0.8 {
						r.Deadline = now + 1 + int64(rng.Uint64n(200_000))
					}
					s.Add(r, now, head)
					ref.add(r)
				} else {
					got, want := s.Next(now, head), ref.Next(now, head)
					if got != want {
						t.Fatalf("quantum %d seed %d: keyed SCAN-EDF popped %+v, the reference %+v", quantum, seed, got, want)
					}
					if got != nil {
						head = got.Cylinder
					}
				}
				q := s.Live()
				if len(q) != s.Len() || s.Len() != ref.Len() {
					t.Fatalf("quantum %d seed %d: %d keys, Len %d, reference Len %d", quantum, seed, len(q), s.Len(), ref.Len())
				}
				for i, e := range q {
					if e.key != ref.batch(e.r) || i > 0 && e.key < q[i-1].key {
						t.Fatalf("quantum %d seed %d: key %d of %d is %d after %d, its request's batch %d",
							quantum, seed, i, len(q), e.key, q[max(i-1, 0)].key, ref.batch(e.r))
					}
				}
			}
			for i := 0; i < 1500; i++ {
				step(rng.Float64() < 0.55)
			}
			for s.Len() > 0 {
				step(false)
			}
		}
	}
}
