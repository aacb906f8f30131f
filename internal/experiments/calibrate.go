package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/serve"
	"sfcsched/internal/workload"
)

// The observe-predict-calibrate experiment of the serving layer: one
// workload served live (emulated disk, dilated wall clock) at a sweep of
// time-dilation factors, each run scored against the simulator's
// prediction of the same trace, on a moderately overloaded disk (4 ms
// arrivals against ~15 ms services), where queue order dominates and
// prediction quality is actually exercised.
const (
	calibrateInterarrival = 4_000
	calibrateLevels       = 8
	calibrateDeadlineMin  = 400_000
	calibrateDeadlineMax  = 700_000
	// calibrateInFlight bounds the live dispatcher's concurrent services:
	// the single-arm semantics the simulator models.
	calibrateInFlight = 1
)

// calibrate sweeps the dilation factor — model seconds per wall second —
// and reports, per point, the per-request latency MAPE, the dispatch-order
// Pearson correlation, the head-travel delta and the wall cost of the run.
// The default sweep runs from near-faithful pacing (2×, where the live
// path tracks the prediction essentially exactly) into aggressive
// compression (1000×, where residual timer error times the dilation
// factor visibly warps the queue); p.Dilations overrides it. Unlike every
// other experiment in this package the numbers are wall-clock
// measurements: re-runs jitter, and the CSV is intentionally excluded from
// the determinism smokes.
func calibrate(_ io.Writer, p Params) ([]*Result, error) {
	p = p.sized(400)
	dilations := p.Dilations
	if len(dilations) == 0 {
		dilations = []float64{2, 25, 200, 1000}
	}
	model, err := xp32150()
	if err != nil {
		return nil, err
	}
	trace, err := workload.Open{
		Seed:             p.Seed,
		Count:            p.Requests,
		MeanInterarrival: calibrateInterarrival,
		Dims:             1,
		Levels:           calibrateLevels,
		DeadlineMin:      calibrateDeadlineMin,
		DeadlineMax:      calibrateDeadlineMax,
		Cylinders:        model.Cylinders,
		SizeMin:          4 << 10,
		SizeMax:          128 << 10,
	}.Generate()
	if err != nil {
		return nil, err
	}
	ecfg := core.EncapsulatorConfig{
		Levels:      calibrateLevels,
		UseDeadline: true, DeadlineHorizon: calibrateDeadlineMax, DeadlineSpan: calibrateDeadlineMax, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: model.Cylinders,
	}
	// Fully-preemptive cascade on both sides, counting into a throwaway sink
	// so a calibration never moves the process-wide scheduler metrics.
	newScheduler := func() (sched.Scheduler, error) {
		s, err := core.NewScheduler("calibrate", ecfg, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
		if err != nil {
			return nil, err
		}
		s.SetMetrics(&core.Metrics{})
		return s, nil
	}

	res := &Result{
		ID:     "calibrate",
		Title:  "Simulator vs live serving path across time-dilation factors",
		XLabel: "dilation (model s per wall s)",
		YLabel: "prediction accuracy (per-series units)",
		X:      make([]float64, len(dilations)),
		Notes: []string{
			fmt.Sprintf("%d requests, %d µs mean interarrival, in-flight %d; identical trace through sim.Run and the live dispatcher",
				p.Requests, calibrateInterarrival, calibrateInFlight),
			"mape-pct = per-request latency MAPE; order-r = Pearson on dispatch ranks; travel-delta-pct = 100*(live-sim)/sim head travel",
			"wall-clock measurement: numbers jitter across runs and machines; excluded from the determinism smokes",
		},
	}
	mape := make([]float64, len(dilations))
	orderR := make([]float64, len(dilations))
	travel := make([]float64, len(dilations))
	wallMs := make([]float64, len(dilations))
	// Sequential on purpose: concurrent wall-clock runs would contend for
	// cores and distort each other's timing.
	for i, dil := range dilations {
		res.X[i] = dil
		cal, err := serve.Calibrate(context.Background(), serve.CalibrationConfig{
			NewScheduler: newScheduler,
			Service:      disk.ServiceModel{Disk: model},
			Dilation:     dil,
			InFlight:     calibrateInFlight,
		}, trace)
		if err != nil {
			return nil, err
		}
		if cal.Aligned != cal.SimServed || cal.Aligned != cal.LiveServed {
			return nil, fmt.Errorf("experiments: calibrate at dilation %v misaligned: sim %d live %d aligned %d",
				dil, cal.SimServed, cal.LiveServed, cal.Aligned)
		}
		mape[i] = nanToZero(cal.LatencyMAPE)
		orderR[i] = nanToZero(cal.OrderPearson)
		travel[i] = 100 * nanToZero(cal.HeadTravelDelta())
		wallMs[i] = float64(cal.Wall.Microseconds()) / 1e3
	}
	for _, s := range []struct {
		name string
		y    []float64
	}{
		{"mape-pct", mape}, {"order-r", orderR}, {"travel-delta-pct", travel}, {"wall-ms", wallMs},
	} {
		if err := res.AddSeries(s.name, s.y); err != nil {
			return nil, err
		}
	}
	return []*Result{res}, nil
}

// nanToZero maps an undefined score onto 0 for rendering.
func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
