package sim

// FuzzEngineDeterminism: two runs with identical Options + seed + fault
// plan must produce byte-identical TraceEvent streams, collectors and
// fault metrics — the replay-identity guarantee behind every golden test
// and the failure-replay harness, extended over the fault path. A second
// arm records the run's JSONL, loads it back through workload.LoadReplay
// and re-executes it, demanding a byte-identical recording; a third arm
// replays the same run in parallel cells (fuzzed worker count, each cell
// on its own Reuse) and demands the identical event stream from every
// cell.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// fuzzPlan derives a fault plan from the fuzz arguments. rateB scales the
// transient rate in [0, 0.31]; failB abandons a request on its first fault
// (bit 0), stretches the backoff past most deadlines (bit 1) and — on
// arrays — arms a mid-run disk failure with rebuild (bit 2).
func fuzzPlan(seed uint64, rateB, failB byte, array bool) *fault.Plan {
	plan := &fault.Plan{
		Seed:          seed ^ 0x9e3779b97f4a7c15,
		TransientRate: float64(rateB%32) / 100,
		RetryBase:     2_000,
	}
	if failB&1 != 0 {
		plan.MaxRetries = -1
	}
	if failB&2 != 0 {
		plan.RetryBase = 150_000
	}
	if array && failB&4 != 0 {
		plan.FailDisk = int(failB) % 5
		plan.FailAt = 400_000
		plan.Rebuild = true
		plan.RebuildBlocks = 5
		plan.RebuildInterval = 3_000
	}
	return plan
}

func FuzzEngineDeterminism(f *testing.F) {
	f.Add(uint64(1), uint16(120), byte(10), byte(0), false, false, byte(0))
	f.Add(uint64(7), uint16(200), byte(25), byte(3), true, false, byte(2))
	f.Add(uint64(3), uint16(150), byte(5), byte(7), true, true, byte(8))
	f.Add(uint64(11), uint16(90), byte(0), byte(4), false, true, byte(1))
	f.Add(uint64(42), uint16(250), byte(31), byte(6), true, true, byte(5))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, rateB, failB byte, drop, array bool, workersB byte) {
		m := disk.MustModel(disk.QuantumXP32150Params())
		count := 50 + int(n)%250
		if array {
			fuzzArrayRun(t, m, seed, count, rateB, failB, drop)
			return
		}
		plan := fuzzPlan(seed, rateB, failB, false)
		trace := workload.Open{
			Seed: seed, Count: count, MeanInterarrival: 15_000,
			Dims: 2, Levels: 8, DeadlineMin: 100_000, DeadlineMax: 400_000,
			Cylinders: m.Cylinders, SizeMin: 4 << 10, SizeMax: 128 << 10,
		}.MustGenerate()
		run := func() ([]flatEvent, *Result) {
			var events []flatEvent
			res, err := Run(Config{Disk: m, Scheduler: sched.NewSCANEDF(50_000),
				Options: Options{DropLate: drop,
					Fault: plan,
					Trace: func(ev TraceEvent) { events = append(events, flatten(ev)) }}},
				smallTraceCopy(trace))
			if err != nil {
				t.Fatal(err)
			}
			return events, res
		}
		ev1, res1 := run()
		ev2, res2 := run()
		if !reflect.DeepEqual(ev1, ev2) {
			t.Fatal("trace streams diverged between identical runs")
		}
		if !reflect.DeepEqual(res1.Collector, res2.Collector) {
			t.Fatal("collectors diverged between identical runs")
		}
		if !reflect.DeepEqual(res1.Faults, res2.Faults) {
			t.Fatalf("fault stats diverged: %+v vs %+v", res1.Faults, res2.Faults)
		}
		if res1.HeadTravel != res2.HeadTravel {
			t.Fatal("head travel diverged between identical runs")
		}

		// Record→replay arm: the JSONL the run emits, loaded back as a
		// workload and re-executed, must reproduce the recording byte for
		// byte. Fault retries log the same request ID on every attempt, so
		// a non-zero transient rate exercises the reader's dedupe.
		record := func(reqs []*core.Request) *bytes.Buffer {
			var buf bytes.Buffer
			if _, err := Run(Config{Disk: m, Scheduler: sched.NewSCANEDF(50_000),
				Options: Options{DropLate: drop,
					Fault: plan, Trace: JSONLTrace(&buf)}}, reqs); err != nil {
				t.Fatal(err)
			}
			return &buf
		}
		recA := record(smallTraceCopy(trace))
		rec, err := workload.LoadReplay(bytes.NewReader(recA.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Len() != len(trace) {
			t.Fatalf("replay reconstructed %d requests from the recording, want %d", rec.Len(), len(trace))
		}
		if recB := record(rec.Generate()); !bytes.Equal(recA.Bytes(), recB.Bytes()) {
			t.Fatal("replayed run diverged from its own recording")
		}

		// Parallel arm: the same run fanned out as independent cells, each
		// on its own Reuse, must replay the sequential event stream exactly
		// for any worker count. Cells return errors rather than calling
		// t.Fatal (wrong goroutine).
		workers := 1 + int(workersB)%8
		cells, err := runner.Map(workers, 3, func(i int) ([]flatEvent, error) {
			var events []flatEvent
			var ru Reuse
			res, err := Run(Config{Disk: m, Scheduler: sched.NewSCANEDF(50_000), Reuse: &ru,
				Options: Options{DropLate: drop,
					Fault: plan,
					Trace: func(ev TraceEvent) { events = append(events, flatten(ev)) }}},
				smallTraceCopy(trace))
			if err != nil {
				return nil, err
			}
			if res.HeadTravel != res1.HeadTravel {
				return nil, fmt.Errorf("cell %d: head travel %d, sequential %d",
					i, res.HeadTravel, res1.HeadTravel)
			}
			return events, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range cells {
			if !reflect.DeepEqual(ev, ev1) {
				t.Fatalf("parallel cell %d (workers=%d) trace diverged from sequential run", i, workers)
			}
		}
	})
}

func fuzzArrayRun(t *testing.T, m *disk.Model, seed uint64, count int, rateB, failB byte, drop bool) {
	array, err := disk.NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	plan := fuzzPlan(seed, rateB, failB, true)
	rng := seed
	next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 33 }
	var trace []*core.Request
	for i := 0; i < count; i++ {
		trace = append(trace, &core.Request{
			ID:       uint64(i + 1),
			Arrival:  int64(i) * 6_000,
			Cylinder: int(next() % uint64(array.MaxBlocks())),
			Size:     64 << 10,
			Write:    next()%4 == 0,
			Deadline: int64(i)*6_000 + 300_000,
		})
	}
	run := func() ([]flatEvent, *ArrayResult) {
		var events []flatEvent
		res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
			Options: Options{DropLate: drop, Fault: plan,
				Trace: func(ev TraceEvent) { events = append(events, flatten(ev)) }}},
			smallTraceCopy(trace))
		if err != nil {
			t.Fatal(err)
		}
		return events, res
	}
	ev1, res1 := run()
	ev2, res2 := run()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatal("array trace streams diverged between identical runs")
	}
	if !reflect.DeepEqual(res1.Logical, res2.Logical) || !reflect.DeepEqual(res1.PerDisk, res2.PerDisk) {
		t.Fatal("array collectors diverged between identical runs")
	}
	if !reflect.DeepEqual(res1.Faults, res2.Faults) {
		t.Fatalf("array fault stats diverged: %+v vs %+v", res1.Faults, res2.Faults)
	}
	if res1.Reconstructions != res2.Reconstructions ||
		res1.AbsorbedWrites != res2.AbsorbedWrites ||
		res1.RebuildReads != res2.RebuildReads ||
		res1.Makespan != res2.Makespan {
		t.Fatal("array degraded-operation counters diverged between identical runs")
	}
}

// FuzzShadowGoldenIdentity pins the observability layer's non-perturbation
// guarantee under fuzzing: a run with shadow schedulers, a decision trace
// and telemetry attached must replay the byte-identical TraceEvent stream,
// collector and head travel of a bare run, for any workload, drop mode and
// pair of shadows from the policy table.
func FuzzShadowGoldenIdentity(f *testing.F) {
	f.Add(uint64(1), uint16(100), false, byte(0))
	f.Add(uint64(7), uint16(200), true, byte(4))
	f.Add(uint64(13), uint16(300), true, byte(5))
	f.Add(uint64(42), uint16(50), false, byte(9))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, drop bool, shadowSel byte) {
		m := disk.MustModel(disk.QuantumXP32150Params())
		trace := workload.Open{
			Seed: seed, Count: 50 + int(n)%300, MeanInterarrival: 15_000,
			Dims: 2, Levels: 8, DeadlineMin: 100_000, DeadlineMax: 400_000,
			Cylinders: m.Cylinders, SizeMin: 4 << 10, SizeMax: 128 << 10,
		}.MustGenerate()
		shadow := func(i int) sched.Scheduler { return sched.Policies[i%len(sched.Policies)].New(m.ServiceTime, 8) }
		run := func(attach bool) ([]flatEvent, *Result) {
			var events []flatEvent
			cfg := Config{Disk: m, Scheduler: sched.NewCSCAN(),
				Options: Options{DropLate: drop,
					Trace: func(ev TraceEvent) { events = append(events, flatten(ev)) }}}
			if attach {
				dt := NewDecisionTrace(0)
				cfg.Decisions = dt
				cfg.Telemetry = NewTelemetry(40_000)
				a := NewShadow("a", shadow(int(shadowSel)))
				b := NewShadow("b", shadow(int(shadowSel)+1))
				cfg.Shadows = []*Shadow{a, b}
			}
			res, err := Run(cfg, smallTraceCopy(trace))
			if err != nil {
				t.Fatal(err)
			}
			return events, res
		}
		evPlain, resPlain := run(false)
		evShadowed, resShadowed := run(true)
		if !reflect.DeepEqual(evPlain, evShadowed) {
			t.Fatal("trace stream diverged with observability attached")
		}
		if !reflect.DeepEqual(resPlain.Collector, resShadowed.Collector) {
			t.Fatal("collector diverged with observability attached")
		}
		if resPlain.HeadTravel != resShadowed.HeadTravel {
			t.Fatal("head travel diverged with observability attached")
		}
		if len(resShadowed.Shadows) != 2 {
			t.Fatalf("got %d shadow reports, want 2", len(resShadowed.Shadows))
		}
		for _, rep := range resShadowed.Shadows {
			if rep.Agreements > rep.Decisions {
				t.Fatalf("shadow %q: agreements %d > decisions %d", rep.Name, rep.Agreements, rep.Decisions)
			}
		}
	})
}
