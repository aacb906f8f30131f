package serve

import (
	"context"

	"sfcsched/internal/core"
)

// Replay feeds trace (sorted by arrival time) into d on the dilated clock:
// it sleeps until each request's arrival time, then submits it stamped
// with that nominal arrival. The scheduler therefore computes the same
// characterization values a simulator run of the trace computes at its
// enqueue points, up to the head-position drift the calibrator exists to
// measure. Replay returns on the first submission error or when ctx is
// done; it does not drain — pair it with Drain.
func Replay(ctx context.Context, d *Dispatcher, trace []*core.Request) error {
	for _, r := range trace {
		if err := d.cfg.Clock.SleepUntil(ctx, r.Arrival); err != nil {
			return err
		}
		if err := d.SubmitAt(ctx, r, r.Arrival); err != nil {
			return err
		}
	}
	return nil
}

// Preload submits every request of trace immediately, stamped with its
// nominal arrival, without waiting for the clock. Called before Start on
// an arrival-at-zero trace, every characterization value anchors on the
// initial head and sweep state — exactly what a simulator run of the same
// trace computes before its first dispatch — so the dispatch order of the
// queued set is fully determined by the stored (value, sequence) pairs
// and provably identical to the simulator's, independent of wall-clock
// jitter. Calibrate stages a trace's arrivals at
// time zero this way, before it starts the dispatcher and replays the
// rest: the engine's own rule that every arrival at t is delivered before
// the dispatch at t.
//
// The dispatcher must have MaxQueue ≥ len(trace) (or 0, unbounded) when
// preloading before Start; see SubmitAt.
func Preload(ctx context.Context, d *Dispatcher, trace []*core.Request) error {
	for _, r := range trace {
		if err := d.SubmitAt(ctx, r, r.Arrival); err != nil {
			return err
		}
	}
	return nil
}
