package sched

import (
	"cmp"
	"slices"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// byDeadline is what is queued in service-candidate order: earliest
// deadline first, no deadline last, ties in queue order.
func byDeadline(queue []*core.Request) []*core.Request {
	sorted := slices.Clone(queue)
	slices.SortStableFunc(sorted, func(a, b *core.Request) int {
		return cmp.Compare(effDeadline(a), effDeadline(b))
	})
	return sorted
}

// ssedoRef is SSEDO by brute force: of the first five left in deadline
// order, serve the one whose seek plus one, weighed 1.5^rank, is least;
// the earlier on a tie. The weights are in sixteenths, so the arithmetic
// is exact.
func ssedoRef(queue []*core.Request, head int) []*core.Request {
	weight := [5]int{16, 24, 36, 54, 81}
	left := byDeadline(queue)
	var order []*core.Request
	for len(left) > 0 {
		best := 0
		for k := range min(5, len(left)) {
			if (absDist(left[k].Cylinder, head)+1)*weight[k] < (absDist(left[best].Cylinder, head)+1)*weight[best] {
				best = k
			}
		}
		order = append(order, left[best])
		head = left[best].Cylinder
		left = slices.Delete(left, best, best+1)
	}
	return order
}

// ssedvRef is SSEDV by brute force: of the first five left in deadline
// order, serve the one least in 0.8·slack/maxSlack + 0.2·seek/maxSeek,
// the earlier on a tie. Slack is clamped to [0, maxSlack]; maxSlack is the
// largest slack of the five with a deadline and maxSeek their longest
// seek, each at least 1. The score is compared times 5·maxSlack·maxSeek,
// as the integer 4·slack·maxSeek + seek·maxSlack, so ties are exact.
func ssedvRef(queue []*core.Request, now int64, head int) []*core.Request {
	left := byDeadline(queue)
	var order []*core.Request
	for ; len(left) > 0; now++ {
		cand := left[:min(5, len(left))]
		maxSlack, maxSeek := int64(1), 1
		for _, r := range cand {
			if r.Deadline != 0 {
				maxSlack = max(maxSlack, r.Deadline-now)
			}
			maxSeek = max(maxSeek, absDist(r.Cylinder, head))
		}
		score := func(r *core.Request) int64 {
			slack := min(max(r.Slack(now), 0), maxSlack)
			return 4*slack*int64(maxSeek) + int64(absDist(r.Cylinder, head))*maxSlack
		}
		best := 0
		for k, r := range cand {
			if score(r) < score(cand[best]) {
				best = k
			}
		}
		order = append(order, left[best])
		head = left[best].Cylinder
		left = slices.Delete(left, best, best+1)
	}
	return order
}

// SSEDV serves the earlier deadline of two candidates whose scores tie
// exactly. Each row queues (cylinder, deadline) pairs at time 0 and names
// the ID served first.
func TestSSEDVExactTies(t *testing.T) {
	type cd struct {
		cyl int
		dl  int64
	}
	for _, tc := range []struct {
		name  string
		head  int
		queue []cd
		want  uint64
	}{
		// Window maxima slack 6 and seek 3: (3,3) scores 0.4+0.2 and
		// (5,4) 0.5333…+0.0666…, both exactly 0.6; in floats the first
		// sum rounds above the second.
		{"head 6, tie at 0.6", 6, []cd{{3, 3}, {5, 4}, {6, 6}}, 1},
		// Equal deadlines and equal seeks: queue order.
		{"identical candidates", 2, []cd{{4, 5}, {0, 5}}, 1},
		// No tie: the nearer cylinder wins with the same slack.
		{"seek decides", 6, []cd{{0, 5}, {5, 5}}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSSEDV()
			reqs := make([]*core.Request, len(tc.queue))
			for i, q := range tc.queue {
				reqs[i] = &core.Request{ID: uint64(i + 1), Cylinder: q.cyl, Deadline: q.dl}
				s.Add(reqs[i], 0, tc.head)
			}
			if got := s.Next(0, tc.head); got.ID != tc.want {
				t.Errorf("served request %d first, want %d", got.ID, tc.want)
			}
			if ref := ssedvRef(reqs, 0, tc.head); ref[0].ID != tc.want {
				t.Errorf("reference serves %d first, want %d", ref[0].ID, tc.want)
			}
		})
	}
}

// FuzzSSEDMatchesBruteForce queues one request per byte of queue
// (cylinder b&7, deadline b>>3&7 with 0 for none) before the first
// dispatch, drains SSEDO and SSEDV with the clock advancing one µs per
// dispatch, and requires each to serve in its reference's order. Cylinders,
// deadlines, head and clock share 0..7, so equal seeks, deadlines and
// scores are common. The seed corpus runs as an ordinary test;
// `go test -fuzz FuzzSSEDMatchesBruteForce ./internal/sched` explores
// further.
func FuzzSSEDMatchesBruteForce(f *testing.F) {
	rng := stats.NewRNG(1)
	for range 2000 {
		queue := make([]byte, 1+rng.Intn(9))
		for i := range queue {
			queue[i] = byte(rng.Intn(64))
		}
		f.Add(byte(rng.Intn(8)), byte(rng.Intn(8)), queue)
	}
	f.Fuzz(func(t *testing.T, head, now byte, queue []byte) {
		queue = queue[:min(len(queue), 12)]
		reqs := make([]*core.Request, len(queue))
		for i, b := range queue {
			reqs[i] = &core.Request{ID: uint64(i + 1), Cylinder: int(b & 7), Deadline: int64(b >> 3 & 7)}
		}
		h, t0 := int(head&7), int64(now&7)
		for _, tc := range []struct {
			s    Scheduler
			want []*core.Request
		}{
			{NewSSEDO(), ssedoRef(reqs, h)},
			{NewSSEDV(), ssedvRef(reqs, t0, h)},
		} {
			for _, r := range reqs {
				tc.s.Add(r, t0, h)
			}
			hd := h
			for i, want := range tc.want {
				got := tc.s.Next(t0+int64(i), hd)
				if got != want {
					t.Fatalf("%s, head %d, now %d, queue %v: dispatch %d is %+v, the reference's %+v",
						tc.s.Name(), h, t0, queue, i, got, want)
				}
				hd = got.Cylinder
			}
			if r := tc.s.Next(t0+int64(len(reqs)), hd); r != nil {
				t.Fatalf("%s: %+v left after the reference drained", tc.s.Name(), r)
			}
		}
	})
}
