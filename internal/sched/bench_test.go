package sched

import (
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// benchDepth is the queue depth BenchmarkPolicies holds: sim-single's mean
// depth (the bench ledger's sched.queue_depth_mean).
const benchDepth = 22

// BenchmarkPolicies times one Add and one Next on every row of the policy
// table, built through NewPolicy, with benchDepth requests queued between
// iterations. The request Next returns is re-armed from a precomputed
// table and added back in the next iteration, so the loop allocates only
// what the scheduler does.
func BenchmarkPolicies(b *testing.B) {
	type arm struct {
		cyl, level int
		dl         int64
	}
	rng := stats.NewRNG(22)
	arms := make([]arm, 4096)
	for i := range arms {
		arms[i] = arm{rng.Intn(3832), rng.Intn(8), 100_000 + int64(rng.Uint64n(600_000))}
	}
	for _, p := range Policies {
		b.Run(p.Name, func(b *testing.B) {
			s, err := NewPolicy(p.Name, testEstimator(), 8)
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]core.Request, benchDepth+1)
			var now int64
			head := 0
			rearm := func(r *core.Request, i int) {
				a := arms[i%len(arms)]
				*r = core.Request{ID: uint64(i), Arrival: now, Deadline: now + a.dl, Cylinder: a.cyl,
					Size: 64 << 10, Priorities: r.Priorities[:0]}
				r.Priorities = append(r.Priorities, a.level)
			}
			for i := range reqs[:benchDepth] {
				rearm(&reqs[i], i)
				s.Add(&reqs[i], now, head)
			}
			spare := &reqs[benchDepth]
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				now += 500
				rearm(spare, benchDepth+i)
				s.Add(spare, now, head)
				if spare = s.Next(now, head); spare == nil {
					b.Fatal("Next returned nil from a non-empty queue")
				}
				head = spare.Cylinder
			}
		})
	}
}
