package sim

import (
	"reflect"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
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
			Options: Options{DropLate: true, SampleRotation: true, Seed: 3,
				Trace: func(ev TraceEvent) { events = append(events, flatten(ev)) }},
		}
		if attach {
			dt := NewDecisionTrace(0)
			dt.SetMetrics(&DecisionMetrics{})
			cfg.Decisions = dt
			cfg.Telemetry = NewTelemetry(50_000)
			cfg.Telemetry.SetMetrics(&DecisionMetrics{})
			sh1 := NewShadow("scan-edf", sched.NewSCANEDF(50_000))
			sh2 := NewShadow("fcfs", sched.NewFCFS())
			sh1.SetMetrics(&DecisionMetrics{})
			sh2.SetMetrics(&DecisionMetrics{})
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
// so the counterfactual queue tracks the primary queue perfectly.
func TestShadowSelfAgreement(t *testing.T) {
	trace := decisionWorkload(11)
	sh := NewShadow("fcfs-twin", sched.NewFCFS())
	res := MustRun(Config{
		Disk: xp(), Scheduler: sched.NewFCFS(),
		Options: Options{DropLate: true, Shadows: []*Shadow{sh}},
	}, trace)
	rep := res.Shadows[0]
	if rep.Decisions == 0 {
		t.Fatal("shadow observed no decisions")
	}
	if rep.Agreements != rep.Decisions {
		t.Errorf("identical-policy shadow agreed on %d of %d decisions", rep.Agreements, rep.Decisions)
	}
	if rep.DisagreementRate() != 0 {
		t.Errorf("identical-policy disagreement rate = %v, want 0", rep.DisagreementRate())
	}
	if rep.HeadTravel != res.HeadTravel {
		t.Errorf("identical-policy shadow head travel %d, primary %d", rep.HeadTravel, res.HeadTravel)
	}
	if rep.QueueLeft != 0 {
		t.Errorf("identical-policy shadow left %d requests queued", rep.QueueLeft)
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

// A §4.2 preset, the single-curve baseline and BUCKET-seek are
// core.Schedulers like the cascade: the decision layer sees their queued
// values and window, and a shadow over one counts into its own sink
// instead of the process-wide one.
func TestValuePresetsAreObservable(t *testing.T) {
	single, err := core.NewSingleStageScheduler("", "hilbert", 2, 8, 1_000_000, 3832,
		core.DispatcherConfig{Mode: core.FullyPreemptive})
	if err != nil {
		t.Fatal(err)
	}
	bucket, err := sched.NewBUCKETSeek(8, 3, 3832)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Scheduler{core.EmulateFCFS(), core.EmulateEDF(), core.EmulateSSTF(),
		core.EmulateCSCAN(3832), core.EmulateMultiQueue(8), single, bucket} {
		if _, ok := s.(ValueWalker); !ok {
			t.Errorf("%s is not a ValueWalker", s.Name())
		}
		if _, ok := s.(ValueRanker); !ok {
			t.Errorf("%s is not a ValueRanker", s.Name())
		}
		if _, ok := s.(WindowStater); !ok {
			t.Errorf("%s is not a WindowStater", s.Name())
		}
		NewShadow(s.Name(), s)
		before := core.DefaultMetrics.Adds.Load()
		s.Add(&core.Request{ID: 1, Priorities: []int{0, 0}, Deadline: 1000, Cylinder: 5}, 0, 0)
		if core.DefaultMetrics.Adds.Load() != before {
			t.Errorf("a shadow over %s counts into core.DefaultMetrics", s.Name())
		}
	}

	dt := NewDecisionTrace(0)
	dt.SetMetrics(&DecisionMetrics{})
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
}

func TestShadowStationValidation(t *testing.T) {
	sh := NewShadow("fcfs", sched.NewFCFS())
	sh.Station = 1
	if _, err := Run(Config{Disk: xp(), Scheduler: sched.NewCSCAN(),
		Options: Options{Shadows: []*Shadow{sh}}}, decisionWorkload(14)); err == nil {
		t.Fatal("single-disk run must reject a shadow targeting station 1")
	}
}

// Array runs attach shadows per station and leave the run unperturbed.
func TestArrayShadows(t *testing.T) {
	m := xp()
	array, err := disk.NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	trace := goldenArrayTrace(15, array)
	run := func(shadows []*Shadow) ([]flatEvent, *ArrayResult) {
		var events []flatEvent
		res, err := RunArray(ArrayConfig{
			Array: array, NewScheduler: fcfsPerDisk,
			Options: Options{DropLate: true, Dims: 1, Levels: 8, Shadows: shadows,
				Trace: func(ev TraceEvent) { events = append(events, flatten(ev)) }},
		}, smallTraceCopy(trace))
		if err != nil {
			t.Fatal(err)
		}
		return events, res
	}
	evPlain, resPlain := run(nil)
	sh0 := NewShadow("fcfs-twin", sched.NewFCFS())
	sh0.SetMetrics(&DecisionMetrics{})
	sh2 := NewShadow("sstf", sched.NewSSTF())
	sh2.SetMetrics(&DecisionMetrics{})
	sh2.Station = 2
	evShadowed, resShadowed := run([]*Shadow{sh0, sh2})
	if !reflect.DeepEqual(evPlain, evShadowed) {
		t.Error("array TraceEvent stream diverged with shadows attached")
	}
	if !reflect.DeepEqual(resPlain.Logical, resShadowed.Logical) {
		t.Error("array logical collector diverged with shadows attached")
	}
	if resShadowed.Shadows[0].Decisions == 0 || resShadowed.Shadows[1].Decisions == 0 {
		t.Errorf("array shadows observed no decisions: %+v", resShadowed.Shadows)
	}
	if rep := resShadowed.Shadows[0]; rep.Agreements != rep.Decisions {
		t.Errorf("identical-policy array shadow agreed on %d of %d", rep.Agreements, rep.Decisions)
	}

	outOfRange := NewShadow("bad", sched.NewFCFS())
	outOfRange.Station = 99
	if _, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
		Options: Options{Dims: 1, Levels: 8, Shadows: []*Shadow{outOfRange}}},
		smallTraceCopy(trace)); err == nil {
		t.Fatal("array run must reject a shadow station outside the array")
	}
}
