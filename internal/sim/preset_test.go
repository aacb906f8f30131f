package sim

import (
	"slices"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// The §4.2 claim in full engine runs: EmulateFCFS, EmulateEDF and
// EmulateCSCAN dispatch exactly as the policy table's fcfs, edf and cscan,
// on a single disk and on a RAID-5 array with 30% read-modify-write
// writes, at three loads with DropLate off and on. The preset fixes its
// value at Add and the classic picks at Next; they agree because every
// station hands both the head it is en route to.
func TestPresetsMatchTheirClassicsInFullRuns(t *testing.T) {
	m := xp()
	array, err := disk.NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	for name, preset := range map[string]func() sched.Scheduler{
		"fcfs":  func() sched.Scheduler { return core.EmulateFCFS() },
		"edf":   func() sched.Scheduler { return core.EmulateEDF() },
		"cscan": func() sched.Scheduler { return core.EmulateCSCAN(m.Cylinders) },
	} {
		classic := func() sched.Scheduler {
			s, err := sched.NewPolicy(name, m.ServiceTime, 8)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		for _, ia := range []int64{20_000, 8_000, 4_000} {
			for _, drop := range []bool{false, true} {
				if !slices.Equal(fullRunStream(t, m, preset, ia, drop, nil), fullRunStream(t, m, classic, ia, drop, nil)) {
					t.Errorf("%s, %d µs apart, drop=%v: single-disk dispatch streams differ", name, ia, drop)
				}
				if !slices.Equal(fullRunStream(t, m, preset, ia, drop, array), fullRunStream(t, m, classic, ia, drop, array)) {
					t.Errorf("%s, %d µs apart, drop=%v: array dispatch streams differ", name, ia, drop)
				}
			}
		}
	}
}

// The paper's window limits (§3) in full engine runs: the Cascaded-SFC
// dispatcher, conditionally preemptive with Serve-and-Promote, dispatches
// exactly as the fully preemptive one at window fraction 0 and as the
// non-preemptive one at fraction 1, at three loads with DropLate off and
// on. Neither limit is vacuous: the two modes differ, and without SP the
// zero window differs from full preemption, so SP is what makes it exact.
func TestWindowLimitsInFullRuns(t *testing.T) {
	m := xp()
	cascade := func(mode core.PreemptMode, sp bool, window float64) func() sched.Scheduler {
		return func() sched.Scheduler {
			s, err := core.NewScheduler("cascaded", benchCascadeConfig(t, 3, 700_000),
				core.DispatcherConfig{Mode: mode, SP: sp}, window)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	for _, ia := range []int64{20_000, 8_000, 4_000} {
		for _, drop := range []bool{false, true} {
			run := func(mk func() sched.Scheduler) []flatEvent { return fullRunStream(t, m, mk, ia, drop, nil) }
			full := run(cascade(core.FullyPreemptive, false, 0))
			non := run(cascade(core.NonPreemptive, false, 0))
			for _, c := range []struct {
				what string
				got  []flatEvent
				want []flatEvent
				same bool
			}{
				{"window 0 with SP against fully preemptive", run(cascade(core.ConditionallyPreemptive, true, 0)), full, true},
				{"window 1 with SP against non-preemptive", run(cascade(core.ConditionallyPreemptive, true, 1)), non, true},
				{"fully preemptive against non-preemptive", full, non, false},
				{"window 0 without SP against fully preemptive", run(cascade(core.ConditionallyPreemptive, false, 0)), full, false},
			} {
				if slices.Equal(c.got, c.want) != c.same {
					t.Errorf("%d µs apart, drop=%v: %s: equal = %v, want %v", ia, drop, c.what, !c.same, c.same)
				}
			}
		}
	}
}

// fullRunStream runs a fresh mk() over a generated 2000-request trace
// (seed 7, mean inter-arrival interarrival µs, 30 % writes) on disk m, or
// on the array on when it is non-nil, and returns the dispatch stream.
func fullRunStream(t *testing.T, m *disk.Model, mk func() sched.Scheduler, interarrival int64, drop bool, on *disk.RAID5) []flatEvent {
	t.Helper()
	var evs []flatEvent
	opts := Options{DropLate: drop, Dims: 3, Levels: 8, Seed: 7,
		Trace: func(ev TraceEvent) { evs = append(evs, flatten(ev)) }}
	w := workload.Open{Seed: 7, Count: 2000, MeanInterarrival: interarrival,
		Dims: 3, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
		Cylinders: m.Cylinders, SizeMin: 4 << 10, SizeMax: 256 << 10, WriteFrac: 0.3}
	var err error
	if on == nil {
		_, err = Run(Config{Disk: m, Scheduler: mk(), Options: opts}, w.MustGenerate())
	} else {
		w.Cylinders = int(on.MaxBlocks())
		_, err = RunArray(ArrayConfig{Array: on, Options: opts,
			NewScheduler: func(int) (sched.Scheduler, error) { return mk(), nil }}, w.MustGenerate())
	}
	if err != nil {
		t.Fatal(err)
	}
	return evs
}
