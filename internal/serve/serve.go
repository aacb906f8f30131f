// Package serve lifts the repo's schedulers out of the simulator's virtual
// clock and stands them up as a real concurrent service: goroutines submit
// requests into a locked scheduler, a dispatcher pops them in that
// scheduler's dispatch order and executes each against a pluggable Backend
// on the wall clock.
//
// The layer split is policy / clock / backend:
//
//   - Policy: any sched.Scheduler — Cascaded-SFC under any preemption mode
//     and window, or a baseline — the identical code the simulator drives,
//     put behind core.Lock and fed concurrently instead of from an event
//     loop. The package builds no scheduler of its own.
//   - Clock: Clock — wall time scaled by a dilation factor into the model's
//     microsecond timeline, so a 65-second workload can be served in under
//     a second (or stretched out for debugging) without touching policy or
//     backend code.
//   - Backend: Backend — what a service physically costs. EmulatedDisk
//     charges the Table 1 disk model (the same disk.ServiceModel the
//     simulator's stations use) by sleeping the scaled real time; a
//     file- or blockdev-backed implementation slots in behind the same
//     interface.
//
// The package closes the observe-predict-calibrate loop: Calibrate feeds
// one request stream through sim.Run and through the live dispatcher,
// aligns the per-request records, and scores how well the simulator
// predicts real service behavior (per-request latency MAPE, Pearson
// correlation on dispatch order, head-travel delta). The simulator thereby
// becomes a measurable capacity-planning tool for the serving path rather
// than an article of faith.
package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// Clock maps the wall clock onto the model's microsecond timeline. A
// dilation factor of d means one wall-clock second covers d seconds of
// model time: d > 1 compresses (a calibration run finishes quickly),
// d = 1 serves in real time, d < 1 stretches (useful when watching a run
// live). The zero value is invalid; use NewClock.
type Clock struct {
	start    time.Time
	dilation float64
}

// NewClock starts a clock at model time 0 with the given dilation factor.
func NewClock(dilation float64) (*Clock, error) {
	if !(dilation > 0) || math.IsInf(dilation, 1) {
		return nil, fmt.Errorf("serve: dilation factor must be positive and finite, got %v", dilation)
	}
	return &Clock{start: time.Now(), dilation: dilation}, nil
}

// Now returns the current model time in microseconds. At extreme
// dilations it saturates at math.MaxInt64 instead of wrapping.
func (c *Clock) Now() int64 { return c.model(c.elapsed()) }

// elapsed is the clock's one read of the monotonic clock: the wall time
// since the clock started. A caller that needs both a model time and a
// wall duration takes one reading and derives both from it.
func (c *Clock) elapsed() time.Duration { return time.Since(c.start) }

// model converts an elapsed reading into model microseconds, as Now does.
func (c *Clock) model(elapsed time.Duration) int64 {
	return saturate(float64(elapsed.Microseconds()) * c.dilation)
}

// Wall converts a model duration (µs) into the wall-clock duration that
// represents it under the dilation factor, saturating at the Duration range.
func (c *Clock) Wall(modelMicros int64) time.Duration {
	return time.Duration(saturate(float64(modelMicros) / c.dilation * float64(time.Microsecond)))
}

// saturate converts f to int64, clamping to the int64 range: a float64 at
// or beyond ±2^63 has no int64 value, and the conversion would wrap.
func saturate(f float64) int64 {
	switch {
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

// SleepUntil blocks until the clock reads at least model time t, or ctx is
// done. Times already in the past return immediately.
func (c *Clock) SleepUntil(ctx context.Context, t int64) error {
	return c.sleep(ctx, time.Until(c.start.Add(c.Wall(t))))
}

// SleepFor blocks for the wall-time equivalent of the model duration d,
// or until ctx is done.
func (c *Clock) SleepFor(ctx context.Context, d int64) error {
	return c.sleep(ctx, c.Wall(d))
}

// spinTail is the final stretch of every sleep served by yield-spinning
// instead of a timer. Sub-millisecond timer wakeups overshoot by ~1 ms on
// 1000 Hz kernels, and the dilation factor multiplies that overshoot into
// model time (1 ms wall at 200× is 200 ms of model error — enough to flip
// deadline outcomes). Spinning the tail trades a bounded sliver of CPU for
// tens-of-microseconds accuracy; ctx stays responsive throughout. It is a
// variable only so that a test on a virtual clock, where a timer fires
// exactly on time, can turn the spin off.
var spinTail = 1500 * time.Microsecond

func (c *Clock) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	deadline := time.Now().Add(d)
	if d > spinTail {
		timer := time.NewTimer(d - spinTail)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		runtime.Gosched()
	}
	return nil
}
