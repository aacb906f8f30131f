package sim

import (
	"strings"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/fault"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
)

// Engine.Setup is the one place a run is validated, so every entry point
// accepts or rejects the same Options with the same words, as far as its
// topology allows: sim.Run (1 station), sim.RunArray (5 stations,
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
	shadow := func() []*Shadow { return []*Shadow{NewShadow("fcfs", sched.NewFCFS())} }
	usedShadow := func() []*Shadow {
		sh := shadow()
		MustRun(Config{FixedService: 1_000, Scheduler: sched.NewFCFS(),
			Options: Options{Shadows: sh}}, []*core.Request{{ID: 1}})
		return sh
	}
	// want holds the error substring per entry (run, array, cluster); ""
	// means the run is accepted. Shadows ride one station only, and only
	// the array can lose a disk.
	cases := []struct {
		name string
		opts func(n int) Options
		want [3]string
	}{
		{"shadow", func(int) Options { return Options{Shadows: shadow()} },
			[3]string{"", "needs a single-station run", "needs a single-station run"}},
		{"reused shadow", func(int) Options { return Options{Shadows: usedShadow()} },
			[3]string{"single-use", "needs a single-station run", "needs a single-station run"}},
		{"negative fault disk", func(int) Options {
			return Options{Fault: &fault.Plan{FailDisk: -1, FailAt: 1}}
		}, [3]string{"requires an array run", "FailDisk -1 outside array of 5 disks", "requires an array run"}},
		{"disk failure", func(n int) Options {
			return Options{Fault: &fault.Plan{FailDisk: n - 1, FailAt: 1}}
		}, [3]string{"requires an array run", "", "requires an array run"}},
		{"failed disk past the last disk", func(n int) Options {
			return Options{Fault: &fault.Plan{FailDisk: n, FailAt: 1}}
		}, [3]string{"requires an array run", "FailDisk 5 outside array of 5 disks", "requires an array run"}},
	}
	for i, e := range entries {
		for _, c := range cases {
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				want := c.want[i]
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
