package sched

import (
	"slices"
	"strconv"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// benchDepth is the queue depth BenchmarkPolicies holds: sim-single's mean
// depth (the bench ledger's sched.queue_depth_mean).
const benchDepth = 22

// steadyCascade is the Cascaded-SFC row of the steady benchmarks: the
// dispatch-order golden's default over the one priority dimension and
// eight levels steadyDriver's requests carry.
var steadyCascade = core.Cascade{Name: "cascaded", Curve: "hilbert", Dims: 1, Levels: 8,
	F: 1, Horizon: 700_000, Slack: true, R: 3, Mode: core.ConditionallyPreemptive, Window: 0.05, SP: true}

// steadyRows are the schedulers the Add+Next benchmarks and the
// allocation gate hold at a depth: every row of the policy table at eight
// levels, then steadyCascade.
func steadyRows() []Policy {
	cascade := Policy{steadyCascade.Name, func(Estimator, int) Scheduler {
		s, err := steadyCascade.Build(orderCylinders)
		if err != nil {
			panic(err)
		}
		return s
	}}
	return append(slices.Clone(Policies), cascade)
}

// BenchmarkPolicies times one Add and one Next on every steady row with
// benchDepth requests queued between iterations.
func BenchmarkPolicies(b *testing.B) {
	for _, p := range steadyRows() {
		b.Run(p.Name, func(b *testing.B) { benchAddNext(b, p, benchDepth) })
	}
}

// BenchmarkPoliciesDeep is BenchmarkPolicies at depths 256 and 2 048,
// where a pick that scans the queue costs what the depth does:
// PoliciesDeep/<policy>/<depth>.
func BenchmarkPoliciesDeep(b *testing.B) {
	for _, p := range steadyRows() {
		b.Run(p.Name, func(b *testing.B) {
			for _, depth := range []int{256, 2048} {
				b.Run(strconv.Itoa(depth), func(b *testing.B) { benchAddNext(b, p, depth) })
			}
		})
	}
}

// benchAddNext times one Add and one Next on p with depth requests queued
// between iterations. The request Next returns is re-armed from a
// precomputed table and added back in the next iteration, so the loop
// allocates only what the scheduler does.
func benchAddNext(b *testing.B, p Policy, depth int) {
	d := newSteadyDriver(p.New(testEstimator(), 8), depth)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		d.step(b)
	}
}

// steadyDriver holds a scheduler at a fixed depth: each step re-arms the
// request the last Next returned from a table of 4 096 seeded arrivals
// (cylinders over the Table 1 disk, eight levels, deadlines 100–700 ms
// out), adds it, and serves one, the head following the served cylinder.
type steadyDriver struct {
	s     Scheduler
	arms  []steadyArm
	spare *core.Request
	n     int
	now   int64
	head  int
}

type steadyArm struct {
	cyl, level int
	dl         int64
}

// newSteadyDriver fills s with depth requests.
func newSteadyDriver(s Scheduler, depth int) *steadyDriver {
	rng := stats.NewRNG(22)
	d := &steadyDriver{s: s, arms: make([]steadyArm, 4096)}
	for i := range d.arms {
		d.arms[i] = steadyArm{rng.Intn(3832), rng.Intn(8), 100_000 + int64(rng.Uint64n(600_000))}
	}
	reqs := make([]core.Request, depth+1)
	for i := range reqs[:depth] {
		d.rearm(&reqs[i])
		s.Add(&reqs[i], d.now, d.head)
	}
	d.spare = &reqs[depth]
	return d
}

func (d *steadyDriver) rearm(r *core.Request) {
	a := d.arms[d.n%len(d.arms)]
	*r = core.Request{ID: uint64(d.n), Arrival: d.now, Deadline: d.now + a.dl, Cylinder: a.cyl,
		Size: 64 << 10, Priorities: r.Priorities[:0]}
	r.Priorities = append(r.Priorities, a.level)
	d.n++
}

// step adds one request and serves one.
func (d *steadyDriver) step(tb testing.TB) {
	d.now += 500
	d.rearm(d.spare)
	d.s.Add(d.spare, d.now, d.head)
	if d.spare = d.s.Next(d.now, d.head); d.spare == nil {
		tb.Fatal("Next returned nil from a non-empty queue")
	}
	d.head = d.spare.Cylinder
}
