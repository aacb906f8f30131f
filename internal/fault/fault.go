// Package fault defines deterministic, seed-driven fault plans and the
// injector that executes them against the simulation engine: transient
// read errors at a per-service probability, and whole-disk failure at a
// planned time. Recovery policies — bounded retry with exponential
// backoff, degraded-mode RAID-5 reconstruction and background rebuild —
// live in the sim package; this package only decides *what* fails
// *when*, from its own RNG stream, so a zero-fault plan leaves the engine
// byte-identical to a run without one.
package fault

import (
	"fmt"
	"math"
)

// Defaults applied by New when the corresponding Plan field is zero.
const (
	// DefaultMaxRetries bounds the retry loop for transient errors.
	DefaultMaxRetries = 3
	// DefaultRetryBase is the first retry delay, µs; each further retry
	// doubles it (exponential backoff).
	DefaultRetryBase = 5_000
)

// Plan is a deterministic fault schedule. The zero Plan injects nothing.
// Plans are pure data: the same Plan (and engine configuration) always
// replays the same faults.
type Plan struct {
	// Seed drives the injector's private RNG stream for probabilistic
	// transients.
	Seed uint64
	// TransientRate is the per-service-completion probability of a
	// transient read error, in [0, 1].
	TransientRate float64

	// MaxRetries bounds retries per request before it is abandoned
	// (0 means DefaultMaxRetries; use a negative value for no retries).
	MaxRetries int
	// RetryBase is the first retry delay in µs, doubled per attempt
	// (0 means DefaultRetryBase).
	RetryBase int64

	// FailDisk fails disk FailDisk at time FailAt (µs); FailAt == 0
	// disables whole-disk failure. Array runs serve reads of the lost
	// disk by reconstruction from the survivors while it is down.
	FailDisk int
	FailAt   int64
	// Rebuild reconstructs RebuildBlocks per-disk blocks of the failed
	// disk through the foreground schedulers, pausing RebuildInterval µs
	// between blocks; when the last block completes the disk rejoins.
	Rebuild         bool
	RebuildBlocks   int
	RebuildInterval int64

	// Metrics is the sink the injector and the run layered on it count
	// into; nil counts nothing.
	Metrics *Metrics
}

// Zero reports whether the plan injects no faults at all.
func (p *Plan) Zero() bool {
	return p == nil || (p.TransientRate == 0 && p.FailAt == 0)
}

// withDefaults returns the plan with DefaultMaxRetries and
// DefaultRetryBase applied, and a negative MaxRetries read as none.
func (p Plan) withDefaults() Plan {
	if p.MaxRetries == 0 {
		p.MaxRetries = DefaultMaxRetries
	} else if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.RetryBase == 0 {
		p.RetryBase = DefaultRetryBase
	}
	return p
}

// Validate checks the plan for internal consistency. A request's backoffs
// total RetryBase·(2^MaxRetries − 1) µs, with the defaults applied; that
// must be a representable time.
func (p *Plan) Validate() error {
	if !(p.TransientRate >= 0 && p.TransientRate <= 1) {
		return fmt.Errorf("fault: TransientRate %v outside [0,1]", p.TransientRate)
	}
	if p.RetryBase < 0 {
		return fmt.Errorf("fault: negative RetryBase %d", p.RetryBase)
	}
	if d := p.withDefaults(); d.MaxRetries > 63 ||
		d.MaxRetries > 0 && uint64(d.RetryBase) > math.MaxInt64/(1<<d.MaxRetries-1) {
		return fmt.Errorf("fault: %d retries from a RetryBase of %d µs back off longer than an int64 time",
			d.MaxRetries, d.RetryBase)
	}
	if p.FailAt < 0 {
		return fmt.Errorf("fault: negative FailAt %d", p.FailAt)
	}
	if p.FailAt > 0 && p.FailDisk < 0 {
		return fmt.Errorf("fault: FailAt set but FailDisk %d is negative", p.FailDisk)
	}
	if p.Rebuild && p.FailAt == 0 {
		return fmt.Errorf("fault: Rebuild requires a planned disk failure (FailAt > 0)")
	}
	if p.Rebuild && p.RebuildBlocks <= 0 {
		return fmt.Errorf("fault: Rebuild requires RebuildBlocks > 0, got %d", p.RebuildBlocks)
	}
	if p.RebuildInterval < 0 {
		return fmt.Errorf("fault: negative RebuildInterval %d", p.RebuildInterval)
	}
	return nil
}
