package sim

import (
	"reflect"
	"strings"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/sched"
)

// The non-perturbation guarantee of the whole observability layer: a run
// with shadows, a decision trace and telemetry attached must produce the
// byte-identical TraceEvent stream, collector and head travel of a bare
// run. This is the test the ISSUE's acceptance criteria pin.
func TestShadowsDoNotPerturb(t *testing.T) {
	trace := decisionWorkload(10)
	run := func(attach bool) ([]flatEvent, *Result) {
		var events []flatEvent
		cfg := Config{
			Disk: xp(), Scheduler: cascadedScheduler(),
			Options: Options{DropLate: true,
				Trace: func(ev TraceEvent) { events = append(events, flatten(ev)) }},
		}
		if attach {
			dt := NewDecisionTrace(0)
			cfg.Decisions = dt
			cfg.Telemetry = NewTelemetry(50_000)
			sh1 := NewShadow("scan-edf", sched.NewSCANEDF(50_000))
			sh2 := NewShadow("fcfs", sched.NewFCFS())
			cfg.Shadows = []*Shadow{sh1, sh2}
		}
		return events, MustRun(cfg, smallTraceCopy(trace))
	}
	evPlain, resPlain := run(false)
	evShadowed, resShadowed := run(true)
	if !reflect.DeepEqual(evPlain, evShadowed) {
		t.Error("TraceEvent stream diverged with shadows attached")
	}
	if !reflect.DeepEqual(resPlain.Collector, resShadowed.Collector) {
		t.Error("collector diverged with shadows attached")
	}
	if resPlain.HeadTravel != resShadowed.HeadTravel {
		t.Error("head travel diverged with shadows attached")
	}

	if len(resShadowed.Shadows) != 2 {
		t.Fatalf("got %d shadow reports, want 2", len(resShadowed.Shadows))
	}
	for _, rep := range resShadowed.Shadows {
		if rep.Decisions == 0 {
			t.Errorf("shadow %q observed no decisions", rep.Name)
		}
		if rep.Agreements > rep.Decisions {
			t.Errorf("shadow %q: agreements %d > decisions %d", rep.Name, rep.Agreements, rep.Decisions)
		}
		if r := rep.DisagreementRate(); r < 0 || r > 1 {
			t.Errorf("shadow %q: disagreement rate %v outside [0,1]", rep.Name, r)
		}
	}
}

// A shadow running the primary's own policy must agree on every decision
// and replay the primary's head travel exactly — the self-consistency
// anchor for the divergence metrics. FCFS pops in strict arrival order,
// and C-SCAN reads only the head both sides share while they agree, so
// each counterfactual queue tracks its primary perfectly. The
// fixed-service station has no geometry, so both heads travel nothing:
// the shadow decides through the station's own Pick.
func TestShadowSelfAgreement(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		twin  sched.Scheduler
		moves bool
	}{
		{"fcfs-disk", Config{Disk: xp(), Scheduler: sched.NewFCFS()}, sched.NewFCFS(), true},
		{"cscan-fixed", Config{FixedService: 10_000, Scheduler: sched.NewCSCAN()}, sched.NewCSCAN(), false},
	} {
		sh := NewShadow(tc.name, tc.twin)
		tc.cfg.Options = Options{DropLate: true, Shadows: []*Shadow{sh}}
		res := MustRun(tc.cfg, decisionWorkload(11))
		rep := res.Shadows[0]
		if rep.Decisions == 0 {
			t.Fatalf("%s: shadow observed no decisions", tc.name)
		}
		if rep.Agreements != rep.Decisions {
			t.Errorf("%s: identical-policy shadow agreed on %d of %d decisions", tc.name, rep.Agreements, rep.Decisions)
		}
		if rep.DisagreementRate() != 0 {
			t.Errorf("%s: identical-policy disagreement rate = %v, want 0", tc.name, rep.DisagreementRate())
		}
		if rep.HeadTravel != res.HeadTravel || (res.HeadTravel > 0) != tc.moves {
			t.Errorf("%s: identical-policy shadow head travel %d, primary %d", tc.name, rep.HeadTravel, res.HeadTravel)
		}
		if rep.QueueLeft != 0 {
			t.Errorf("%s: identical-policy shadow left %d requests queued", tc.name, rep.QueueLeft)
		}
	}
}

// A seek-optimizing shadow under an FCFS primary must report less
// hypothetical head travel — the counterfactual the shadow layer exists
// to expose.
func TestShadowSSTFBeatsFCFSTravel(t *testing.T) {
	trace := decisionWorkload(12)
	sh := NewShadow("sstf", sched.NewSSTF())
	res := MustRun(Config{
		Disk: xp(), Scheduler: sched.NewFCFS(),
		Options: Options{Shadows: []*Shadow{sh}},
	}, trace)
	rep := res.Shadows[0]
	if rep.HeadTravel >= res.HeadTravel {
		t.Errorf("SSTF shadow travel %d not below FCFS primary %d", rep.HeadTravel, res.HeadTravel)
	}
	if rep.Agreements == rep.Decisions {
		t.Error("SSTF shadow never disagreed with FCFS; workload too trivial")
	}
}

// The §4.2 presets and the single-curve baseline are core.Schedulers like
// the cascade: the decision layer sees their queued values and window.
func TestValuePresetsAreObservable(t *testing.T) {
	single, err := core.NewSingleStageScheduler("single-hilbert", "hilbert", 2, 8, 1_000_000, 3832)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Scheduler{core.EmulateFCFS(), core.EmulateEDF(), core.EmulateSSTF(),
		core.EmulateCSCAN(3832), core.EmulateMultiQueue(8), single} {
		if _, ok := s.(valueAdder); !ok {
			t.Errorf("%s reports no queued values", s.Name())
		}
		if _, ok := s.(ValueRanker); !ok {
			t.Errorf("%s is not a ValueRanker", s.Name())
		}
		if _, ok := s.(WindowStater); !ok {
			t.Errorf("%s is not a WindowStater", s.Name())
		}
	}

	dt := NewDecisionTrace(0)
	recs := recordsOf(dt)
	MustRun(Config{
		Disk: xp(), Scheduler: core.EmulateEDF(),
		Options: Options{DropLate: true, Decisions: dt},
	}, decisionWorkload(3))
	if dt.Total() == 0 {
		t.Fatal("no decisions captured")
	}
	for i, rec := range *recs {
		if rec.Chosen.V == NoValue {
			t.Fatalf("record %d: emulated EDF orders by value, chosen V missing", i)
		}
	}
}

func TestShadowSingleUse(t *testing.T) {
	trace := decisionWorkload(13)
	sh := NewShadow("fcfs", sched.NewFCFS())
	MustRun(Config{Disk: xp(), Scheduler: sched.NewCSCAN(),
		Options: Options{Shadows: []*Shadow{sh}}}, trace)
	if _, err := Run(Config{Disk: xp(), Scheduler: sched.NewCSCAN(),
		Options: Options{Shadows: []*Shadow{sh}}}, trace); err == nil {
		t.Fatal("reusing a shadow across runs must error")
	}
	twice := NewShadow("fcfs", sched.NewFCFS())
	if _, err := Run(Config{Disk: xp(), Scheduler: sched.NewCSCAN(),
		Options: Options{Shadows: []*Shadow{twice, twice}}}, trace); err == nil {
		t.Fatal("a shadow listed twice in one run must error")
	}
}

// A run that Setup rejects never starts, so it must leave its shadows
// unspent: the next run with the same shadows rides them.
func TestRejectedRunLeavesShadowsUnused(t *testing.T) {
	sh := NewShadow("fcfs", sched.NewFCFS())
	if _, err := Run(Config{Disk: xp(), Scheduler: sched.NewCSCAN(), Options: Options{
		Shadows: []*Shadow{sh},
		Fault:   &fault.Plan{FailDisk: 0, FailAt: 1_000},
	}}, decisionWorkload(16)); err == nil {
		t.Fatal("single-disk run accepted a whole-disk failure")
	}
	requireUnspent(t, sh)
}

// Shadows ride single-station runs only: an array run rejects them before
// it starts, so they stay unspent for a single-disk run.
func TestArrayShadows(t *testing.T) {
	array, err := disk.NewRAID5(5, 64<<10, xp())
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShadow("fcfs", sched.NewFCFS())
	_, err = RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
		Options: Options{Dims: 1, Levels: 8, Shadows: []*Shadow{sh}}}, goldenArrayTrace(15, array))
	if err == nil || !strings.Contains(err.Error(), "needs a single-station run") {
		t.Fatalf("array run with a shadow: err = %v, want a single-station error", err)
	}
	requireUnspent(t, sh)
}

// requireUnspent fails unless sh can still ride a single-disk run.
func requireUnspent(t *testing.T, sh *Shadow) {
	t.Helper()
	res, err := Run(Config{Disk: xp(), Scheduler: sched.NewCSCAN(),
		Options: Options{Shadows: []*Shadow{sh}}}, decisionWorkload(14))
	if err != nil {
		t.Fatalf("shadow spent by a run that never started: %v", err)
	}
	if res.Shadows[0].Decisions == 0 {
		t.Error("shadow observed no decisions")
	}
}
