package sim

import (
	"strings"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/fault"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
)

// Engine.Setup is the one place a run is validated, so the same Options
// must be accepted or rejected — with the same words — whichever entry
// point assembles it: sim.Run (1 station), sim.RunArray (5 stations,
// failable) and the call cluster.Run makes (N stations, not failable).
func TestSetupValidation(t *testing.T) {
	array := testArray(t)
	entries := []struct {
		name     string
		stations int
		run      func(Options) error
	}{
		{"run", 1, func(o Options) error {
			_, err := Run(Config{FixedService: 1_000, Scheduler: sched.NewFCFS(), Options: o}, nil)
			return err
		}},
		{"array", 5, func(o Options) error {
			_, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk, Options: o}, nil)
			return err
		}},
		{"cluster", 4, func(o Options) error {
			stations := make([]*Station, 4)
			for i := range stations {
				stations[i] = &Station{Sched: sched.NewFCFS(), Disk: xp(), Col: metrics.NewCollector(0, 1)}
			}
			return new(Engine).Setup(o, stations, false)
		}},
	}
	shadowAt := func(station int) []*Shadow {
		sh := NewShadow("fcfs", sched.NewFCFS())
		sh.Station = station
		return []*Shadow{sh}
	}
	usedShadow := func() []*Shadow {
		sh := NewShadow("fcfs", sched.NewFCFS())
		MustRun(Config{FixedService: 1_000, Scheduler: sched.NewFCFS(),
			Options: Options{Shadows: []*Shadow{sh}}}, []*core.Request{{ID: 1}})
		return []*Shadow{sh}
	}
	plan := func(p fault.Plan) *fault.Plan {
		p.Metrics = quietMetrics()
		return &p
	}
	// want is the error substring on the two topologies that cannot lose
	// a disk, wantArray on the one that can; "" means the run is accepted.
	cases := []struct {
		name            string
		opts            func(n int) Options
		want, wantArray string
	}{
		{"last station's shadow", func(n int) Options { return Options{Shadows: shadowAt(n - 1)} }, "", ""},
		{"shadow past the last station", func(n int) Options { return Options{Shadows: shadowAt(n)} },
			"targets station", "targets station"},
		{"negative shadow station", func(int) Options { return Options{Shadows: shadowAt(-1)} },
			"targets station", "targets station"},
		{"reused shadow", func(int) Options { return Options{Shadows: usedShadow()} }, "single-use", "single-use"},
		{"scripted fault on the last disk", func(n int) Options {
			return Options{Fault: plan(fault.Plan{Scripted: []fault.Event{{Disk: n - 1, Cylinder: -1}}})}
		}, "", ""},
		{"scripted fault past the last disk", func(n int) Options {
			return Options{Fault: plan(fault.Plan{Scripted: []fault.Event{{Disk: 0, Cylinder: -1}, {Disk: n, Cylinder: -1}}})}
		}, "Scripted[1] names disk", "Scripted[1] names disk"},
		{"bad range past the last disk", func(n int) Options {
			return Options{Fault: plan(fault.Plan{Bad: []fault.BadRange{{Disk: n + 3, From: 1, To: 2}}})}
		}, "Bad[0] names disk", "Bad[0] names disk"},
		{"negative fault disk", func(int) Options {
			return Options{Fault: plan(fault.Plan{Bad: []fault.BadRange{{Disk: -1, From: 1, To: 2}}})}
		}, "negative disk", "negative disk"},
		{"disk failure", func(n int) Options {
			return Options{Fault: plan(fault.Plan{FailDisk: n - 1, FailAt: 1})}
		}, "requires an array run", ""},
		{"failed disk past the last disk", func(n int) Options {
			return Options{Fault: plan(fault.Plan{FailDisk: n, FailAt: 1})}
		}, "requires an array run", "FailDisk 5 outside array of 5 disks"},
	}
	for _, e := range entries {
		for _, c := range cases {
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				want := c.want
				if e.name == "array" {
					want = c.wantArray
				}
				err := e.run(c.opts(e.stations))
				switch {
				case want == "" && err != nil:
					t.Fatalf("rejected a valid run: %v", err)
				case want != "" && err == nil:
					t.Fatalf("accepted; want an error containing %q", want)
				case want != "" && !strings.Contains(err.Error(), want):
					t.Fatalf("error %q does not contain %q", err, want)
				}
			})
		}
	}
}

// RunArray must size its collectors from the trace when Dims/Levels are
// zero, as Run and cluster.Run do: it used to hand the zeros straight to
// the collectors and report no inversions and no per-level misses.
func TestArrayInfersShape(t *testing.T) {
	array := testArray(t)
	run := func(dims, levels int) *ArrayResult {
		res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
			Options: Options{DropLate: true, Dims: dims, Levels: levels}}, goldenArrayTrace(3, array))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inferred, explicit := run(0, 0), run(1, 8)
	var inversions uint64
	for d := range explicit.PerDisk {
		inversions += inferred.PerDisk[d].TotalInversions()
		if got, want := inferred.PerDisk[d].TotalInversions(), explicit.PerDisk[d].TotalInversions(); got != want {
			t.Errorf("disk %d: %d inversions with inferred shape, %d with Dims: 1, Levels: 8", d, got, want)
		}
	}
	if inversions == 0 {
		t.Error("no inversions counted: the workload does not exercise the shape")
	}
	dims, levels := InferShape(0, 0, goldenArrayTrace(3, array))
	if got := inferred.Logical; got.Dims() != dims || got.Levels() != levels || dims != 1 || levels < 2 {
		t.Errorf("collectors sized %d×%d, trace shape %d×%d", got.Dims(), got.Levels(), dims, levels)
	}
}
