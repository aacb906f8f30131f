package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/obs"
	"sfcsched/internal/serve"
	"sfcsched/internal/workload"
)

// runServe lifts the Cascaded-SFC scheduler onto the wall clock: it
// generates a 1-d open workload that overloads the disk (4 ms arrivals
// against ~15 ms services) and serves it live through the real-clock
// dispatcher against the emulated Quantum disk, replaying the trace (with
// shifted arrivals) until -serve-for elapses.
// The run owns its scheduler's core.Metrics and its dispatcher's
// serve.Metrics and registers both in reg, so with -http a scrape of
// /metrics shows sfcsched_* and sfcsched_serve_* advancing while the run is
// in flight.
func runServe(out io.Writer, o *options, reg *obs.Registry) error {
	model, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		return err
	}
	count := o.requests
	if count <= 0 {
		count = 2000
	}
	const meanGap = 4_000 // µs
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
	sched, err := serveScheduler(model.Cylinders)
	if err != nil {
		return err
	}
	schedMetrics, m := new(core.Metrics), new(serve.Metrics)
	if err := schedMetrics.Register(reg, "sfcsched"); err != nil {
		return err
	}
	if err := m.Register(reg, "sfcsched_serve"); err != nil {
		return err
	}
	sched.SetMetrics(schedMetrics)
	clock, err := serve.NewClock(o.dilation)
	if err != nil {
		return err
	}
	backend, err := serve.NewEmulatedDisk(disk.ServiceModel{Disk: model}, clock)
	if err != nil {
		return err
	}
	d, err := serve.New(serve.Config{
		Sched:   sched,
		Backend: backend,
		Clock:   clock,
		// The workload is deliberately overloaded (~15 ms mean service
		// against 4 ms arrivals), so an unbounded queue would grow for the
		// whole run and Drain would stall on the backlog. Backpressure
		// throttles the feed instead and bounds the drain tail.
		MaxQueue: 2 * count,
		Metrics:  m,
	})
	if err != nil {
		return err
	}

	feedCtx := context.Background()
	cancel := context.CancelFunc(func() {})
	if o.serveFor > 0 {
		feedCtx, cancel = context.WithTimeout(feedCtx, o.serveFor)
	}
	defer cancel()

	fmt.Fprintf(out, "serve: %d requests/cycle, dilation %g", count, o.dilation)
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
	for cycle := 0; ; cycle++ {
		offset := int64(cycle) * period
		shifted := make([]*core.Request, len(trace))
		for i, r := range trace {
			rr := *r
			rr.ID += uint64(cycle) * uint64(len(trace))
			rr.Arrival += offset
			if rr.Deadline > 0 {
				rr.Deadline += offset
			}
			shifted[i] = &rr
		}
		if err := serve.Replay(feedCtx, d, shifted); err != nil {
			break
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

	fmt.Fprintf(out, "serve: %d cycles, submitted %d served %d dropped %d rejected %d abandoned %d, backpressure waits %d\n",
		cycles, m.Submitted.Load(), m.Completed.Load(), m.Dropped.Load(),
		m.Rejected.Load(), m.Abandoned.Load(), m.BackpressureWaits.Load())
	fmt.Fprintf(out, "serve: %v wall for %v model time, head travel %d cylinders, final head %d\n",
		wall.Round(time.Millisecond), (time.Duration(clock.Now()) * time.Microsecond).Round(time.Millisecond),
		d.HeadTravel(), d.Head())
	return nil
}

// serveScheduler is the fully preemptive cascade runServe serves with: 8
// priority levels, a deadline stage weighed against them at F = 1
// (schedsim's -f default), and the cylinder stage, with no window.
func serveScheduler(cylinders int) (*core.Scheduler, error) {
	return core.NewScheduler("serve", core.EncapsulatorConfig{
		Levels:      8,
		UseDeadline: true, F: 1, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: cylinders,
	}, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
}
