package sched

import (
	"slices"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// fuzzLevels is the level count the keyed-policy fuzz builds multi-queue
// with; its requests' levels run one past each end so both clamps occur.
const fuzzLevels = 2

// definitions are one-pass kernels of the policies that keep their queue
// in key order: each returns the index in left, the queued requests in
// arrival order, that the policy serves next, found by looking at every
// one of them.
var definitions = []struct {
	name string
	new  func() Scheduler
	pick func(left []*core.Request, now int64, head int) int
}{
	{"fcfs", NewFCFS, func([]*core.Request, int64, int) int { return 0 }},
	{"edf", NewEDF, func(left []*core.Request, _ int64, _ int) int {
		best := 0
		for i, r := range left {
			if effDeadline(r) < effDeadline(left[best]) {
				best = i
			}
		}
		return best
	}},
	{"multi-queue", func() Scheduler { return NewMultiQueue(fuzzLevels) }, func(left []*core.Request, _ int64, head int) int {
		level := func(r *core.Request) int { return min(max(priorityOf(r), 0), fuzzLevels-1) }
		best := 0
		for i, r := range left {
			l, lb := level(r), level(left[best])
			if l < lb || l == lb && ahead(r.Cylinder, head) < ahead(left[best].Cylinder, head) {
				best = i
			}
		}
		return best
	}},
	{"ssedo", NewSSEDO, func(left []*core.Request, _ int64, head int) int {
		cand := byDeadline(left)
		return slices.Index(left, cand[ssedoPick(cand, head)])
	}},
	{"ssedv", NewSSEDV, func(left []*core.Request, now int64, head int) int {
		cand := byDeadline(left)
		return slices.Index(left, cand[ssedvPick(cand, now, head)])
	}},
}

// FuzzKeyedPoliciesMatchDefinitions drives FCFS, EDF, multi-queue, SSEDO
// and SSEDV through one interleaving of Add and Next, one step per byte of
// ops, and requires every Next to serve what the policy's definition picks
// from the same requests. A byte of 0xC0 or more is a Next; any other adds
// a request at cylinder b&3, with deadline 16·(b>>2&3) (0: none) and
// level (b>>4&3)−1. The clock is the step's index and the head follows
// the served cylinder, so ties on every key are common and slack runs
// negative. The seed corpus runs as an ordinary test;
// `go test -fuzz FuzzKeyedPoliciesMatchDefinitions ./internal/sched`
// explores further.
func FuzzKeyedPoliciesMatchDefinitions(f *testing.F) {
	rng := stats.NewRNG(57)
	for range 500 {
		ops := make([]byte, 1+rng.Intn(48))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		f.Add(byte(rng.Intn(4)), ops)
	}
	f.Fuzz(func(t *testing.T, head byte, ops []byte) {
		ops = ops[:min(len(ops), 96)]
		for _, def := range definitions {
			s := def.new()
			var left []*core.Request
			h := int(head & 3)
			for i, b := range ops {
				now := int64(i)
				if b < 0xC0 {
					r := &core.Request{ID: uint64(i + 1), Arrival: now, Cylinder: int(b & 3),
						Deadline: 16 * int64(b>>2&3), Priorities: []int{int(b>>4&3) - 1}}
					s.Add(r, now, h)
					left = append(left, r)
					continue
				}
				got := s.Next(now, h)
				var want *core.Request
				if len(left) > 0 {
					k := def.pick(left, now, h)
					want = left[k]
					left = slices.Delete(left, k, k+1)
				}
				if got != want {
					t.Fatalf("%s, head %d, ops %x: step %d served %+v, the definition %+v", def.name, head&3, ops, i, got, want)
				}
				if got != nil {
					h = got.Cylinder
				}
			}
			if s.Len() != len(left) {
				t.Fatalf("%s: Len %d, %d left by the definition", def.name, s.Len(), len(left))
			}
		}
	})
}
