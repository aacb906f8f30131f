package fault

import (
	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// Verdict is the injector's ruling on one service completion.
type Verdict int

const (
	// OK: the service succeeded.
	OK Verdict = iota
	// Retry: the service failed transiently; re-enqueue the request after
	// the returned backoff delay.
	Retry
	// Exhausted: the service failed and the retry budget is spent; the
	// request is abandoned (a drop attributable to faults).
	Exhausted
	// Lost: the disk failed while the service was in flight; the op must
	// be re-routed (arrays reconstruct) or abandoned.
	Lost
)

// Stats is a snapshot of everything the injector did during a run.
type Stats struct {
	// Transients counts injected transient faults, including the failing
	// attempt that exhausts a request.
	Transients uint64
	// Retries counts re-enqueues issued after a transient fault.
	Retries uint64
	// Exhausted counts requests abandoned after MaxRetries.
	Exhausted uint64
	// LostInFlight counts services that were in flight on the disk when
	// it failed.
	LostInFlight uint64
	// FailedAt and RebuiltAt are the disk-failure and rebuild-completion
	// times, µs (0 = never).
	FailedAt  int64
	RebuiltAt int64
}

// Injector executes a Plan against a run. It is created per run (New) and
// is not safe for concurrent use — the engine is single-threaded.
type Injector struct {
	plan     Plan
	rng      *stats.RNG
	attempts map[*core.Request]int
	down     bool
	stats    Stats
}

// New builds the injector for plan. The cylinders argument is unused; it
// stays until the frozen benchmark, which passes it, is next changed.
func New(plan Plan, _ int) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:     plan.withDefaults(),
		rng:      stats.NewRNG(plan.Seed),
		attempts: make(map[*core.Request]int),
	}, nil
}

// Down reports whether disk d is currently failed.
func (in *Injector) Down(d int) bool {
	return in.down && in.plan.FailDisk == d
}

// DownDisk returns the currently failed disk, if any.
func (in *Injector) DownDisk() (int, bool) {
	if !in.down {
		return 0, false
	}
	return in.plan.FailDisk, true
}

// FailNow marks the planned disk failed at time now.
func (in *Injector) FailNow(now int64) {
	in.down = true
	in.stats.FailedAt = now
}

// MarkRebuilt returns the failed disk to service at time now.
func (in *Injector) MarkRebuilt(now int64) {
	in.down = false
	in.stats.RebuiltAt = now
}

// Outcome rules on the service of r that just completed on disk d. For
// Retry verdicts the second return value is the backoff delay in µs
// before the request re-enters its scheduler. The cyl and now arguments
// are unused; they stay until the frozen benchmark, which passes them, is
// next changed.
//
// A completion on a failed disk is Lost; otherwise a single RNG draw
// decides the transient. One draw at most per completion, in completion
// order, keeps replays byte-identical.
func (in *Injector) Outcome(d, _ int, r *core.Request, _ int64) (Verdict, int64) {
	if in.Down(d) {
		in.stats.LostInFlight++
		delete(in.attempts, r)
		return Lost, 0
	}
	if in.plan.TransientRate == 0 || in.rng.Float64() >= in.plan.TransientRate {
		delete(in.attempts, r)
		return OK, 0
	}
	in.stats.Transients++
	a := in.attempts[r] + 1
	if a > in.plan.MaxRetries {
		delete(in.attempts, r)
		in.stats.Exhausted++
		return Exhausted, 0
	}
	in.attempts[r] = a
	in.stats.Retries++
	return Retry, in.plan.RetryBase << (a - 1)
}

// Attempted reports whether r has failed at least one service attempt
// and is still pending (used to attribute deadline drops to faults).
func (in *Injector) Attempted(r *core.Request) bool {
	_, ok := in.attempts[r]
	return ok
}

// Forget releases retry bookkeeping for a request that left the engine
// through a path Outcome did not see (drop, re-route).
func (in *Injector) Forget(r *core.Request) { delete(in.attempts, r) }

// Stats returns a snapshot of the injector's counters.
func (in *Injector) Stats() Stats { return in.stats }
