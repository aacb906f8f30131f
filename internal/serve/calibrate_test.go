package serve

import (
	"context"
	"errors"
	"math"
	"testing"

	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// newFullyPreemptive is the calibration factory of the default test policy.
func newFullyPreemptive() (sched.Scheduler, error) { return fullyPreemptive(), nil }

// TestCalibrateExactOrderPreloaded is the calibration half of the
// exact-order acceptance pin: an arrival-at-zero trace, which Calibrate
// preloads before the dispatcher starts, must score a perfect order
// correlation, full alignment, and identical head travel — the live run
// made exactly the dispatch decisions the simulator predicted, so every
// residual is timing.
func TestCalibrateExactOrderPreloaded(t *testing.T) {
	trace := zeroArrivalTrace(96)
	cal, err := Calibrate(context.Background(), CalibrationConfig{
		NewScheduler: newFullyPreemptive,
		Service:      disk.ServiceModel{Disk: disk.MustModel(disk.QuantumXP32150Params())},
		Dilation:     20_000,
		InFlight:     1,
	}, trace)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if !cal.OrderExact {
		t.Errorf("OrderExact = false on a preloaded contention-free run")
	}
	if cal.SimServed != len(trace) || cal.LiveServed != len(trace) || cal.Aligned != len(trace) {
		t.Errorf("served sim %d live %d aligned %d, want all %d",
			cal.SimServed, cal.LiveServed, cal.Aligned, len(trace))
	}
	if cal.OrderPearson != 1 {
		t.Errorf("OrderPearson = %v, want 1", cal.OrderPearson)
	}
	if cal.LiveHeadTravel != cal.SimHeadTravel {
		t.Errorf("head travel diverged: live %d, sim %d (identical dispatch order must travel identically)",
			cal.LiveHeadTravel, cal.SimHeadTravel)
	}
	if math.IsNaN(cal.LatencyMAPE) || cal.LatencyMAPE < 0 {
		t.Errorf("LatencyMAPE = %v, want a finite non-negative score", cal.LatencyMAPE)
	}
	if cal.SimMakespan <= 0 || cal.LiveMakespan <= 0 {
		t.Errorf("makespans sim %d live %d, want positive", cal.SimMakespan, cal.LiveMakespan)
	}
	if delta := cal.HeadTravelDelta(); delta != 0 {
		t.Errorf("HeadTravelDelta = %v, want 0", delta)
	}
}

// TestCalibrateReplay runs the realistic mode: spread arrivals replayed on
// the dilated clock. Order and latency are allowed to drift (that is the
// point of the measurement) but every request must be served on both sides
// and the scores must be sane.
func TestCalibrateReplay(t *testing.T) {
	trace := workload.Open{
		Seed: 42, Count: 120, MeanInterarrival: 4_000,
		Dims: 1, Levels: 8,
		DeadlineMin: 400_000, DeadlineMax: 700_000,
		Cylinders: 3832, Size: 65536,
	}.MustGenerate()
	cal, err := Calibrate(context.Background(), CalibrationConfig{
		NewScheduler: newFullyPreemptive,
		Service:      disk.ServiceModel{Disk: disk.MustModel(disk.QuantumXP32150Params())},
		Dilation:     50,
		InFlight:     1,
	}, trace)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if cal.SimServed != len(trace) || cal.LiveServed != len(trace) || cal.Aligned != len(trace) {
		t.Fatalf("served sim %d live %d aligned %d, want all %d",
			cal.SimServed, cal.LiveServed, cal.Aligned, len(trace))
	}
	if math.IsNaN(cal.LatencyMAPE) || cal.LatencyMAPE < 0 {
		t.Errorf("LatencyMAPE = %v, want a finite non-negative score", cal.LatencyMAPE)
	}
	// The workload overloads the disk (4 ms arrivals vs ~15 ms services),
	// so the queue order dominates and the rank correlation must be
	// strongly positive even under wall-clock jitter.
	if math.IsNaN(cal.OrderPearson) || cal.OrderPearson < 0.5 {
		t.Errorf("OrderPearson = %v, want >= 0.5", cal.OrderPearson)
	}
	if cal.Wall <= 0 {
		t.Errorf("Wall = %v, want positive", cal.Wall)
	}
}

func TestCalibrateValidation(t *testing.T) {
	sm := disk.ServiceModel{Disk: disk.MustModel(disk.QuantumXP32150Params())}
	trace := zeroArrivalTrace(4)
	if _, err := Calibrate(context.Background(), CalibrationConfig{
		Service: sm, Dilation: 100,
	}, trace); err == nil {
		t.Error("missing scheduler factory accepted")
	}
	failing := func() (sched.Scheduler, error) { return nil, errors.New("no scheduler") }
	if _, err := Calibrate(context.Background(), CalibrationConfig{
		NewScheduler: failing, Service: sm, Dilation: 100,
	}, trace); err == nil {
		t.Error("failing scheduler factory accepted")
	}
	if _, err := Calibrate(context.Background(), CalibrationConfig{
		NewScheduler: newFullyPreemptive, Service: sm, Dilation: 0,
	}, trace); err == nil {
		t.Error("zero dilation accepted")
	}
	if _, err := Calibrate(context.Background(), CalibrationConfig{
		NewScheduler: newFullyPreemptive, Service: disk.ServiceModel{}, Dilation: 100,
	}, trace); err == nil {
		t.Error("empty service model accepted")
	}
}
