package main

import (
	"fmt"
	"time"

	"sfcsched/internal/sched"
)

// params is what every pass of every workload is run with. The program
// under test sees only inputs generated from seed.
type params struct {
	seed uint64
	// scale multiplies every operation count. 1 is the benchmark; the
	// package's tests run at 1/100.
	scale float64
}

// scaled returns n operations at the run's scale, at least 1.
func (p params) scaled(n int) int {
	v := int(float64(n) * p.scale)
	if v < 1 {
		v = 1
	}
	return v
}

// repetition is the outcome of one repetition of a workload: the fixed
// amount of work every commit is timed on.
type repetition struct {
	// ops is the number of requests carried through the workload's path;
	// host is the time spent inside the measured region.
	ops  int64
	host time.Duration
	// digests holds one digest per arm, in arm order.
	digests []digest
}

// model holds a workload's simulated-disk quality figures. They are
// functions of the generated input alone: any two passes over one seed, on
// any commit that does not change policy, must agree to the last digit.
type model struct {
	// lossPct is (dropped + late + admit-dropped) / arrived, in percent.
	lossPct float64
	// seekMsPerServed is model seek time per served request, ms.
	seekMsPerServed float64
	// inversionsPerDispatch is §5.1 priority inversions per dispatch,
	// summed over priority dimensions.
	inversionsPerDispatch float64
}

// tracer is what a workload threads through its decorators in the traced
// pass. A nil *tracer means the measured pass: nothing is attached.
type tracer struct {
	rec *recorder
	// counts holds the exact counts of every traced scheduler, keyed by the
	// span prefix it records under ("core.sched", "sched.cscan", ...).
	counts map[string]*schedCounts
	// extra tracks hold spans recorded off the main goroutine (serve-live's
	// backend); aggregated separately and merged by name.
	extra []*recorder
}

func newTracer(capacity int) *tracer {
	return &tracer{rec: newRecorder(capacity), counts: make(map[string]*schedCounts)}
}

func (t *tracer) countsFor(prefix string) *schedCounts {
	c := t.counts[prefix]
	if c == nil {
		c = &schedCounts{}
		t.counts[prefix] = c
	}
	return c
}

// begin opens a span named name on the main track and end closes it. Both
// do nothing on a nil tracer, so a workload's run paths read the same in
// the measured and the traced pass. They are for calls made a few times per
// repetition; per-request decorators hold their recorder and name ids.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	return t.rec.begin(t.rec.id(name))
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.rec.end(i)
	}
}

// sched decorates s on a tracer, and returns s itself on a nil one.
func (t *tracer) sched(s sched.Scheduler, prefix, each string) sched.Scheduler {
	if t == nil {
		return s
	}
	return traceSched(s, t.rec, prefix, each, t.countsFor(prefix))
}

// scenario is one of the benchmark's five workloads (the name "workload" is
// taken by the package under test). The passes in
// pass.go drive it; nothing here knows about time budgets or output.
type scenario interface {
	// setup generates the inputs from the seed, constructs models, curves
	// and schedulers, and runs one warm-up repetition of every arm. It is
	// called several times per pass (set-up time is a metric) and must
	// leave the workload ready for repetition either way.
	setup(tr *tracer) error
	// reference returns the warm-up repetition's digests: what every later
	// repetition, in any pass, must reproduce exactly.
	reference() []digest
	// repeat runs one repetition.
	repeat(tr *tracer) (repetition, error)
	// roundTrips returns per-request latencies in µs with one request
	// outstanding: the workload's own definition of rtt_p50_us (README). One
	// call takes 1/parts of the workload's sample count, so that a pass can
	// spread its samples over its whole duration.
	roundTrips(tr *tracer, parts int) ([]float64, error)
	// model returns the simulated-disk figures of the input, and verify
	// records every output check that does not belong to a single
	// repetition.
	model() model
	verify(c *checks)
	// traced turns the traced pass's spans and counts into this
	// workload's per-layer metrics.
	traced(tr *tracer, stats map[string]spanStat, cost spanCost, out metricSet)
	// close releases anything setup started.
	close()
}

// workloadNames lists the workloads in the order every table prints them.
var workloadNames = []string{"sched-churn", "sim-single", "sim-observed", "sim-fleet", "serve-live"}

// workloadWhy is the one-line reason each workload exists; BENCHMARK.json
// and the README carry the same text.
var workloadWhy = map[string]string{
	"sched-churn":  "scheduler as a library: sfc+core do all the work, every engine layer none",
	"sim-single":   "the path every figure and sweep cell runs: engine, collector, disk, scheduler in natural proportion",
	"sim-observed": "the same engine with trace, decisions, shadow and telemetry attached, as schedsim uses it",
	"sim-fleet":    "N stations with logical-to-physical fan-out: RAID-5 array and routed, admitted cluster",
	"serve-live":   "wall clock: goroutine hand-off, channels and sharded ingress on the path, sim layers idle",
}

func newWorkload(name string, p params) (scenario, error) {
	switch name {
	case "sched-churn":
		return &churn{p: p}, nil
	case "sim-single":
		return &simSingle{p: p}, nil
	case "sim-observed":
		return &simObserved{p: p}, nil
	case "sim-fleet":
		return &simFleet{p: p}, nil
	case "serve-live":
		return &serveLive{p: p}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}
