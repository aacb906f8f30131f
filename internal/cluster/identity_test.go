package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// A 1×1 cluster is sim.Run: one station, one disk, one head model. For the
// cascade as schedsim builds it (SFC3 on, so values depend on the head at
// Add) and for every baseline of the policy table, at three loads with
// DropLate off and on, the two runs emit the same dispatch stream byte for
// byte and end with the same collector and head travel.
func TestSingleNodeClusterIsSimRun(t *testing.T) {
	m := testDisk(t)
	policies := append([]sched.Policy{{Name: "cascaded", New: func(sched.Estimator, int) sched.Scheduler {
		cv, err := sfc.New("hilbert", 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewScheduler("cascaded", core.EncapsulatorConfig{
			Curve1: cv, Levels: 8,
			UseDeadline: true, F: 1, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
			UseCylinder: true, R: 3, Cylinders: m.Cylinders,
		}, core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}}}, sched.Policies...)
	for _, p := range policies {
		for _, ia := range []int64{20_000, 8_000, 4_000} {
			for _, drop := range []bool{false, true} {
				trace := func() []*core.Request {
					return workload.Open{Seed: 3, Count: 1000, MeanInterarrival: ia,
						Dims: 3, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
						Cylinders: m.Cylinders, SizeMin: 4 << 10, SizeMax: 256 << 10}.MustGenerate()
				}
				var single, clustered bytes.Buffer
				want, err := sim.Run(sim.Config{Disk: m, Scheduler: p.New(m.ServiceTime, 8),
					Options: sim.Options{Seed: 7, DropLate: drop, SampleRotation: true, Dims: 3, Levels: 8,
						Trace: sim.JSONLTrace(&single)}}, trace())
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(Config{Nodes: 1, DisksPerNode: 1, Disk: m,
					NewScheduler: func(int, int) (sched.Scheduler, error) { return p.New(m.ServiceTime, 8), nil },
					Seed:         7, DropLate: drop, SampleRotation: true, Dims: 3, Levels: 8,
					Trace: sim.JSONLTrace(&clustered), Metrics: &Metrics{}}, trace())
				if err != nil {
					t.Fatal(err)
				}
				col := *got.PerDisk[0]
				col.Makespan = got.Makespan
				switch {
				case single.Len() == 0:
					t.Fatalf("%s, %d µs apart, drop=%v: empty dispatch stream", p.Name, ia, drop)
				case !bytes.Equal(single.Bytes(), clustered.Bytes()):
					t.Errorf("%s, %d µs apart, drop=%v: dispatch streams differ", p.Name, ia, drop)
				case !reflect.DeepEqual(&col, want.Collector):
					t.Errorf("%s, %d µs apart, drop=%v: collectors differ:\ncluster %+v\nsim.Run %+v", p.Name, ia, drop, col, *want.Collector)
				case got.PerNode[0].HeadTravel != want.HeadTravel:
					t.Errorf("%s, %d µs apart, drop=%v: head travel %d, sim.Run %d", p.Name, ia, drop, got.PerNode[0].HeadTravel, want.HeadTravel)
				}
			}
		}
	}
}
