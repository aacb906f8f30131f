package sim

import (
	"fmt"
	"slices"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// Exact queueing laws: properties of the engine that hold whatever the
// queue discipline, checked over every discipline the simulator drives.

// lindleyService is the constant service time of the law's runs, µs.
const lindleyService = 10_000

// lindleySchedulers builds every sched.Policies row plus the Cascaded-SFC
// scheduler (SFC3 on) in each preemption mode, once with SP and once with
// ER.
func lindleySchedulers() map[string]func() sched.Scheduler {
	est := func(int, int, int64) int64 { return lindleyService }
	out := make(map[string]func() sched.Scheduler)
	for _, p := range sched.Policies {
		out[p.Name] = func() sched.Scheduler { return p.New(est, 8) }
	}
	ecfg := core.EncapsulatorConfig{
		Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 800_000,
		UseCylinder: true, R: 3, Cylinders: 3832,
	}
	for _, mode := range []core.PreemptMode{core.NonPreemptive, core.FullyPreemptive, core.ConditionallyPreemptive} {
		for _, guard := range []string{"SP", "ER"} {
			dcfg := core.DispatcherConfig{Mode: mode, SP: guard == "SP", ER: guard == "ER"}
			out[fmt.Sprintf("cascaded/%v/%s", mode, guard)] = func() sched.Scheduler {
				return core.MustScheduler("cascaded", ecfg, dcfg, 0.05)
			}
		}
	}
	return out
}

// lindleyHolds runs trace on one station with constant service S and
// reports whether the sorted service-start epochs equal the Lindley
// recursion over the sorted arrivals, d_i = max(a_i, d_{i−1}+S): the
// station is a work-conserving G/D/1 server, so which request a
// discipline starts changes who waits, never when the server is busy. The
// run must also end at d_n + S, and a Cascaded-SFC scheduler's own
// dispatch-wait histogram must sum to Σd_i − Σa_i.
func lindleyHolds(t *testing.T, s sched.Scheduler, trace []*core.Request, dropLate bool) (bool, string) {
	t.Helper()
	var m *core.Metrics
	if cs, ok := s.(*core.Scheduler); ok {
		m = &core.Metrics{}
		cs.SetMetrics(m)
	}
	var starts []int64
	res, err := Run(Config{FixedService: lindleyService, Scheduler: s, Options: Options{
		DropLate: dropLate,
		Trace: func(ev TraceEvent) {
			if !ev.Dropped {
				starts = append(starts, ev.Now)
			}
		},
	}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != len(trace) {
		return false, fmt.Sprintf("%d of %d requests started", len(starts), len(trace))
	}
	slices.Sort(starts)
	d, wait := int64(0), int64(0)
	for i, r := range trace {
		if i == 0 {
			d = r.Arrival
		} else {
			d = max(r.Arrival, d+lindleyService)
		}
		if starts[i] != d {
			return false, fmt.Sprintf("start %d at %d, recursion says %d", i, starts[i], d)
		}
		wait += d - r.Arrival
	}
	if res.Makespan != d+lindleyService {
		return false, fmt.Sprintf("makespan %d, recursion says %d", res.Makespan, d+lindleyService)
	}
	if m != nil && m.DispatchWait.Sum() != uint64(wait) {
		return false, fmt.Sprintf("dispatch waits sum to %d, recursion says %d", m.DispatchWait.Sum(), wait)
	}
	return true, ""
}

// TestLindleyRecursion checks the first exact law at loads from light to
// past saturation (ρ = S / mean interarrival), seeds 1–3. With DropLate a
// dropped request frees the server early, so the law must break somewhere:
// the negative control that the check can fail.
func TestLindleyRecursion(t *testing.T) {
	broken := 0
	for name, mk := range lindleySchedulers() {
		for _, rho := range []float64{0.30, 0.75, 0.95, 1.125} {
			for seed := uint64(1); seed <= 3; seed++ {
				trace := workload.Open{
					Seed: seed, Count: 400, MeanInterarrival: int64(lindleyService / rho),
					Dims: 2, Levels: 8, DeadlineMin: 50_000, DeadlineMax: 300_000,
					Cylinders: 3832, Size: 64 << 10,
				}.MustGenerate()
				if ok, why := lindleyHolds(t, mk(), trace, false); !ok {
					t.Errorf("%s ρ=%v seed %d: %s", name, rho, seed, why)
				}
				if ok, _ := lindleyHolds(t, mk(), trace, true); !ok {
					broken++
				}
			}
		}
	}
	if broken == 0 {
		t.Error("the law held in every DropLate run too: the check cannot fail")
	}
}
