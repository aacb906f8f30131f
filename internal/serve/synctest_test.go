//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package serve

import (
	"context"
	"fmt"
	"testing"
	"testing/synctest"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/workload"
)

// This file runs only with GOEXPERIMENT=synctest (make synctest): the live
// dispatcher on a virtual clock, where time moves only when every
// goroutine of the run is blocked, so a timer fires exactly when it is due
// and a service takes exactly the model's time. The asynctimerchan
// directive gives the test binary the timer channels synctest needs,
// whatever Go version go.mod names.

// inBubble runs f on a virtual clock. It is the one call of synctest.Run,
// which Go 1.25 replaces with synctest.Test. The channel, made outside the
// bubble, orders f's writes before the caller's reads for the race
// detector, which does not see synctest.Run's return as doing so.
func inBubble(f func()) {
	done := make(chan struct{})
	synctest.Run(func() {
		f()
		close(done)
	})
	<-done
}

// schedsimCascade builds the cascade schedsim runs at its default flags:
// a 3-d Hilbert SFC1 over 8 levels, the deadline stage over a 700 ms
// horizon, three SFC3 partitions, conditionally preemptive with SP at
// window 0.02.
func schedsimCascade(m *disk.Model) sched.Scheduler {
	cv, err := sfc.New("hilbert", 3, 8)
	if err != nil {
		panic(err)
	}
	return core.MustScheduler("cascaded", core.EncapsulatorConfig{
		Curve1: cv, Levels: 8,
		UseDeadline: true, F: 1, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: m.Cylinders,
	}, core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, 0.02)
}

// liveTrace is schedsim's open workload at the given mean interarrival.
func liveTrace(interarrival int64) []*core.Request {
	return workload.Open{
		Seed: 1, Count: 400, MeanInterarrival: interarrival,
		Dims: 3, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
		Cylinders: 3832, SizeMin: 4 << 10, SizeMax: 256 << 10,
	}.MustGenerate()
}

// liveIsSim calibrates trace on a virtual clock at dilation 1 and requires
// the live run to be the simulator's: the same requests served in the same
// order, the same drops, the same head travel and every latency exact.
func liveIsSim(t *testing.T, name string, newSched func() sched.Scheduler, sm disk.ServiceModel, dropLate bool, trace []*core.Request) {
	t.Helper()
	var cal *Calibration
	var err error
	inBubble(func() {
		cal, err = Calibrate(context.Background(), CalibrationConfig{
			NewScheduler: func() (sched.Scheduler, error) { return newSched(), nil },
			Service:      sm, Dilation: 1, DropLate: dropLate,
		}, trace)
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !cal.OrderExact || cal.SimDropped != cal.LiveDropped || cal.LiveAbandoned != 0 ||
		cal.SimHeadTravel != cal.LiveHeadTravel || cal.LatencyMAPE != 0 {
		t.Errorf("%s: exact %v, served sim %d live %d, dropped sim %d live %d, abandoned %d, travel sim %d live %d, MAPE %v",
			name, cal.OrderExact, cal.SimServed, cal.LiveServed, cal.SimDropped, cal.LiveDropped,
			cal.LiveAbandoned, cal.SimHeadTravel, cal.LiveHeadTravel, cal.LatencyMAPE)
	}
}

// TestLiveDispatcherIsSimRun is the decision step's two-clock pin: with
// time virtual, the live dispatcher and sim.Run make the same decisions
// through sim.Pick and charge the same services, so a calibration of every
// policy at three loads, with and without DropLate, must score exact.
func TestLiveDispatcherIsSimRun(t *testing.T) {
	defer func(spin time.Duration) { spinTail = spin }(spinTail)
	spinTail = 0
	model := disk.MustModel(disk.QuantumXP32150Params())
	sm := disk.ServiceModel{Disk: model}
	policies := append([]sched.Policy{{Name: "cascaded", New: func(sched.Estimator, int) sched.Scheduler {
		return schedsimCascade(model)
	}}}, sched.Policies...)
	for _, pol := range policies {
		newSched := func() sched.Scheduler { return pol.New(model.ServiceTime, 8) }
		for _, ia := range []int64{20_000, 13_000, 8_000} {
			for _, dropLate := range []bool{false, true} {
				name := fmt.Sprintf("%s/%dus/drop=%v", pol.Name, ia, dropLate)
				liveIsSim(t, name, newSched, sm, dropLate, liveTrace(ia))
			}
		}
	}

	// A station without geometry travels nothing on either side.
	liveIsSim(t, "cscan/fixed-service", func() sched.Scheduler { return sched.NewCSCAN() },
		disk.ServiceModel{FixedService: 10_000}, false, liveTrace(13_000))

	// Arrivals at time zero are all queued before the first decision, as
	// the engine delivers every arrival at t before the dispatch at t.
	burst := liveTrace(13_000)
	for _, r := range burst[:50] {
		r.Arrival = 0
	}
	liveIsSim(t, "cascaded/burst-at-zero", func() sched.Scheduler { return schedsimCascade(model) }, sm, true, burst)
}
