package sim

import (
	"slices"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/workload"
)

// invariantSchedulers builds the policies exercised by the cross-cutting
// invariant tests: the policy table and a Peano-curve cascade.
func invariantSchedulers() map[string]func() sched.Scheduler {
	return withPolicies(xp(), map[string]func() sched.Scheduler{
		"cascaded": func() sched.Scheduler {
			return core.MustScheduler("cascaded", core.EncapsulatorConfig{
				Curve1: sfc.MustNew("peano", 2, 9), Levels: 8,
				UseDeadline: true, F: 1, DeadlineHorizon: 700_000,
				DeadlineSpan: 700_000, DeadlineSlack: true,
				UseCylinder: true, R: 3, Cylinders: 3832,
			}, core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, 0.02)
		},
	})
}

// TestRunInvariants checks, for every scheduler under both drop modes:
// request conservation (nothing dropped without DropLate), non-negative
// waits, a busy time within (0, makespan], and seek accounted within
// service.
func TestRunInvariants(t *testing.T) {
	trace := workload.Open{
		Seed: 3, Count: 1500, MeanInterarrival: 12_000,
		Dims: 2, Levels: 8, DeadlineMin: 200_000, DeadlineMax: 700_000,
		Cylinders: 3832, SizeMin: 4 << 10, SizeMax: 64 << 10,
	}.MustGenerate()
	for name, mk := range invariantSchedulers() {
		for _, drop := range []bool{false, true} {
			negWait := false
			res := MustRun(Config{
				Disk: xp(), Scheduler: mk(),
				Options: Options{DropLate: drop, Dims: 2, Levels: 8, Seed: 3, Trace: func(ev TraceEvent) {
					negWait = negWait || ev.Now < ev.Request.Arrival
				}},
			}, trace)
			if res.Arrived != uint64(len(trace)) {
				t.Errorf("%s drop=%v: arrived %d != %d", name, drop, res.Arrived, len(trace))
			}
			if res.Served+res.Dropped != res.Arrived {
				t.Errorf("%s drop=%v: served %d + dropped %d != arrived %d",
					name, drop, res.Served, res.Dropped, res.Arrived)
			}
			if !drop && res.Dropped != 0 {
				t.Errorf("%s: dropped %d without DropLate", name, res.Dropped)
			}
			if res.ServiceTime <= 0 || res.ServiceTime > res.Makespan {
				t.Errorf("%s drop=%v: busy %d outside (0, makespan %d]", name, drop, res.ServiceTime, res.Makespan)
			}
			if res.SeekTime > res.ServiceTime {
				t.Errorf("%s drop=%v: seek %d exceeds service %d", name, drop, res.SeekTime, res.ServiceTime)
			}
			if negWait {
				t.Errorf("%s drop=%v: negative waiting time", name, drop)
			}
		}
	}
}

// TestWorkConservation: the disk never idles while requests are pending —
// so total idle time must not exceed the idle implied by arrival gaps.
// A simple sufficient check: with a saturating workload (arrivals faster
// than service), makespan ~= first arrival + total service time.
func TestWorkConservation(t *testing.T) {
	trace := workload.Open{
		Seed: 4, Count: 800, MeanInterarrival: 1_000,
		Dims: 1, Levels: 8, Cylinders: 3832, Size: 64 << 10,
	}.MustGenerate()
	res := MustRun(Config{Disk: xp(), Scheduler: sched.NewSSTF(), Options: Options{Seed: 4}}, trace)
	idle := res.Makespan - res.ServiceTime
	if idle > trace[0].Arrival+1000 {
		t.Errorf("disk idled %d us with a saturating queue", idle)
	}
}

// TestPerfectPriorityOrderHasZeroInversions: a single-dimension cascade
// with a huge service gap between arrivals dispatches strictly by level,
// so dispatch-time inversions must be zero when all requests are present
// before the first dispatch.
func TestPerfectPriorityOrderHasZeroInversions(t *testing.T) {
	var trace []*core.Request
	for i := 0; i < 64; i++ {
		trace = append(trace, &core.Request{
			ID: uint64(i + 1), Arrival: 0, Priorities: []int{i % 8},
		})
	}
	s := core.MustScheduler("strict", core.EncapsulatorConfig{Levels: 8},
		core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	res := MustRun(Config{Scheduler: s, FixedService: 100, Options: Options{Dims: 1, Levels: 8}}, trace)
	if res.TotalInversions() != 0 {
		t.Errorf("strict priority order produced %d inversions", res.TotalInversions())
	}
}

// TestFIFOMatchesArrivalOrderWaits: under FCFS with fixed service, waiting
// times are non-decreasing in arrival order within a busy period.
func TestFIFOMatchesArrivalOrderWaits(t *testing.T) {
	trace := []*core.Request{
		{ID: 1, Arrival: 0},
		{ID: 2, Arrival: 10},
		{ID: 3, Arrival: 20},
	}
	var waits []int64
	MustRun(Config{Scheduler: sched.NewFCFS(), FixedService: 1000, Options: Options{Trace: func(ev TraceEvent) {
		waits = append(waits, ev.Now-ev.Request.Arrival)
	}}}, trace)
	if !slices.Equal(waits, []int64{0, 990, 1980}) {
		t.Errorf("waits = %v, want [0 990 1980]", waits)
	}
}

// TestCascadedFullStackAgainstBaselines: integration — the full cascade
// must land between the specialists on their own turf: no more misses
// than FCFS, no more seek than EDF, under the mixed workload.
func TestCascadedFullStackAgainstBaselines(t *testing.T) {
	trace := workload.Open{
		Seed: 5, Count: 3000, MeanInterarrival: 13_000,
		Dims: 3, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
		Cylinders: 3832, SizeMin: 4 << 10, SizeMax: 256 << 10,
	}.MustGenerate()
	run := func(s sched.Scheduler, drop bool) *Result {
		return MustRun(Config{Disk: xp(), Scheduler: s, Options: Options{DropLate: drop, Dims: 3, Levels: 8, Seed: 5}}, trace)
	}
	cascaded := run(invariantSchedulers()["cascaded"](), true)
	fcfs := run(sched.NewFCFS(), true)
	edf := run(sched.NewEDF(), true)
	if cascaded.TotalMisses() >= fcfs.TotalMisses() {
		t.Errorf("cascaded misses %d >= FCFS %d", cascaded.TotalMisses(), fcfs.TotalMisses())
	}
	if cascaded.SeekTime >= edf.SeekTime {
		t.Errorf("cascaded seek %d >= EDF %d", cascaded.SeekTime, edf.SeekTime)
	}
	// Inversions are compared under the §5 semantics (no dropping): with
	// DropLate each scheduler serves a different request subset, so raw
	// counts are not comparable — only the shared served set is.
	cascadedND := run(invariantSchedulers()["cascaded"](), false)
	fcfsND := run(sched.NewFCFS(), false)
	if cascadedND.TotalInversions() >= fcfsND.TotalInversions() {
		t.Errorf("cascaded inversions %d >= FCFS %d", cascadedND.TotalInversions(), fcfsND.TotalInversions())
	}
}
