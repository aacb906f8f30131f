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
	"sfcsched/internal/obs"
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

	// schedbench -serve's configuration, which overloads the disk: a 1-d
	// trace at 4 ms against ~15 ms services, under the fully preemptive
	// cascade with SFC3 at window 0.
	overload := workload.Open{
		Seed: 1, Count: 400, MeanInterarrival: 4_000,
		Dims: 1, Levels: 8, DeadlineMin: 400_000, DeadlineMax: 700_000,
		Cylinders: model.Cylinders, SizeMin: 4 << 10, SizeMax: 128 << 10,
	}.MustGenerate()
	preemptive := func() sched.Scheduler {
		return core.MustScheduler("cascaded", core.EncapsulatorConfig{
			Levels:      8,
			UseDeadline: true, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
			UseCylinder: true, R: 3, Cylinders: model.Cylinders,
		}, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	}
	for _, dropLate := range []bool{false, true} {
		liveIsSim(t, fmt.Sprintf("cascaded/overload/drop=%v", dropLate), preemptive, sm, dropLate, overload)
	}
}

// TestLiveAccountingOnVirtualClock pins the dispatcher's two timings where
// a service takes exactly the backend's dilated sleep: the WallService
// histogram must hold, sample for sample, each served record's
// Clock.Wall(Service) — every sample is at least its sleep, so equal
// buckets and an equal sum leave no sample off — and ModelLatency must sum
// the records' Done − Arrival. Dilation 4 puts a conversion between the
// model and the wall clock.
func TestLiveAccountingOnVirtualClock(t *testing.T) {
	defer func(spin time.Duration) { spinTail = spin }(spinTail)
	spinTail = 0
	model := disk.MustModel(disk.QuantumXP32150Params())
	for _, sm := range []disk.ServiceModel{{Disk: model}, {FixedService: 10_000}} {
		m := &Metrics{}
		var clock *Clock
		var recs []Record
		var err error
		inBubble(func() {
			ctx := context.Background()
			clock, err = NewClock(4)
			if err != nil {
				return
			}
			var be *EmulatedDisk
			if be, err = NewEmulatedDisk(sm, clock); err != nil {
				return
			}
			var d *Dispatcher
			d, err = New(Config{Sched: schedsimCascade(model), Backend: be, Clock: clock, Metrics: m, KeepRecords: true})
			if err != nil {
				return
			}
			d.Start(ctx)
			if err = Replay(ctx, d, liveTrace(13_000)); err != nil {
				d.Stop()
				return
			}
			err = d.Drain(ctx)
			recs = d.Records()
		})
		if err != nil {
			t.Fatalf("fixed service %d: %v", sm.FixedService, err)
		}
		var wall obs.Histogram
		var latency uint64
		for _, rec := range recs {
			if rec.Dropped || rec.Abandoned {
				t.Fatalf("fixed service %d: request %d dropped or abandoned on a clean run", sm.FixedService, rec.ID)
			}
			wall.Observe(uint64(clock.Wall(rec.Service).Microseconds()))
			latency += uint64(rec.Done - rec.Arrival)
		}
		if n := m.Completed.Load(); n != uint64(len(recs)) || n != 400 {
			t.Fatalf("fixed service %d: completed %d, %d records, want 400", sm.FixedService, n, len(recs))
		}
		if m.WallService.Snapshot() != wall.Snapshot() || m.WallService.Sum() != wall.Sum() {
			t.Errorf("fixed service %d: WallService sums %d µs, the backend slept %d µs",
				sm.FixedService, m.WallService.Sum(), wall.Sum())
		}
		if m.ModelLatency.Count() != uint64(len(recs)) || m.ModelLatency.Sum() != latency {
			t.Errorf("fixed service %d: ModelLatency %d samples summing %d µs, records %d summing %d µs",
				sm.FixedService, m.ModelLatency.Count(), m.ModelLatency.Sum(), len(recs), latency)
		}
	}
}
