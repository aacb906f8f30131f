package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/serve"
	"sfcsched/internal/workload"
)

// runServe lifts the Cascaded-SFC scheduler onto the wall clock: it
// generates the calibrate experiment's open workload and serves it live
// through the real-clock dispatcher against the emulated Quantum disk,
// repeating the trace (with shifted arrivals) until -serve-for elapses.
// All counts flow through serve.DefaultMetrics, so with -http a scrape of
// /metrics shows sfcsched_serve_* advancing while the run is in flight.
func runServe(out io.Writer, o *options) error {
	model, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		return err
	}
	count := o.requests
	if count <= 0 {
		count = 2000
	}
	const meanGap = 4_000 // µs; the calibrate experiment's arrival rate
	trace, err := workload.Open{
		Seed:             o.seed,
		Count:            count,
		MeanInterarrival: meanGap,
		Dims:             1,
		Levels:           8,
		DeadlineMin:      400_000,
		DeadlineMax:      700_000,
		Cylinders:        model.Cylinders,
		SizeMin:          4 << 10,
		SizeMax:          128 << 10,
	}.Generate()
	if err != nil {
		return err
	}
	ecfg := core.EncapsulatorConfig{
		Levels:      8,
		UseDeadline: true, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: model.Cylinders,
	}
	sched, err := core.NewScheduler("serve", ecfg, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	if err != nil {
		return err
	}
	clock, err := serve.NewClock(o.dilation)
	if err != nil {
		return err
	}
	backend, err := serve.NewEmulatedDisk(disk.ServiceModel{Disk: model}, clock)
	if err != nil {
		return err
	}
	d, err := serve.New(serve.Config{
		Sched:    sched,
		Backend:  backend,
		Clock:    clock,
		InFlight: o.inflight,
		// The workload is deliberately overloaded (~15 ms mean service
		// against 4 ms arrivals), so an unbounded queue would grow for the
		// whole run and Drain would stall on the backlog. Backpressure
		// throttles the feed instead and bounds the drain tail.
		MaxQueue: 2 * count,
	})
	if err != nil {
		return err
	}

	before := snapshotServe()
	feedCtx := context.Background()
	cancel := context.CancelFunc(func() {})
	if o.serveFor > 0 {
		feedCtx, cancel = context.WithTimeout(feedCtx, o.serveFor)
	}
	defer cancel()

	fmt.Fprintf(out, "serve: %d requests/cycle, dilation %g, in-flight %d", count, o.dilation, o.inflight)
	if o.serveFor > 0 {
		fmt.Fprintf(out, ", repeating for %v wall", o.serveFor)
	}
	fmt.Fprintln(out)

	wallStart := time.Now()
	d.Start(context.Background())
	// One model-time period per pass through the trace; each cycle replays
	// the same access pattern shifted forward so arrivals stay monotonic
	// and IDs stay unique.
	period := trace[len(trace)-1].Arrival + meanGap
	cycles := 0
feed:
	for cycle := 0; ; cycle++ {
		offset := int64(cycle) * period
		for _, r := range trace {
			rr := *r
			rr.ID += uint64(cycle) * uint64(len(trace))
			rr.Arrival += offset
			if rr.Deadline > 0 {
				rr.Deadline += offset
			}
			if err := clock.SleepUntil(feedCtx, rr.Arrival); err != nil {
				break feed
			}
			if err := d.SubmitAt(feedCtx, &rr, rr.Arrival); err != nil {
				break feed
			}
		}
		cycles++
		if o.serveFor == 0 || feedCtx.Err() != nil {
			break
		}
	}
	if err := d.Drain(context.Background()); err != nil {
		return err
	}
	wall := time.Since(wallStart)

	after := snapshotServe()
	fmt.Fprintf(out, "serve: %d cycles, submitted %d served %d dropped %d rejected %d abandoned %d, backpressure waits %d\n",
		cycles,
		after.submitted-before.submitted,
		after.completed-before.completed,
		after.dropped-before.dropped,
		after.rejected-before.rejected,
		after.abandoned-before.abandoned,
		after.backpressure-before.backpressure)
	fmt.Fprintf(out, "serve: %v wall for %v model time, head travel %d cylinders, final head %d\n",
		wall.Round(time.Millisecond), (time.Duration(clock.Now()) * time.Microsecond).Round(time.Millisecond),
		d.HeadTravel(), d.Head())
	return nil
}

// serveCounts is a snapshot of the serve.DefaultMetrics counters, so the
// printed summary reports this run's deltas even when earlier runs in the
// same process already advanced the process-global aggregate.
type serveCounts struct {
	submitted, completed, dropped, rejected, abandoned, backpressure uint64
}

func snapshotServe() serveCounts {
	m := serve.DefaultMetrics
	return serveCounts{
		submitted:    m.Submitted.Load(),
		completed:    m.Completed.Load(),
		dropped:      m.Dropped.Load(),
		rejected:     m.Rejected.Load(),
		abandoned:    m.Abandoned.Load(),
		backpressure: m.BackpressureWaits.Load(),
	}
}
