package sim

import "sfcsched/internal/metrics"

// Reuse holds the per-run state of Run — the metrics collector (and its
// waiting-time sample buffer), the Station, and the Engine with its event
// heap and rotational-latency RNG — and recycles it across successive
// runs. Every Run goes through one: without Config.Reuse it is a
// throw-away, so the fresh path is the recycled path on an empty Reuse. A
// sweep that runs thousands of simulations through one Reuse performs a
// small run-constant number of allocations per run instead of re-growing
// every buffer (pinned by the allocation gate in alloc_test.go).
//
// The zero value is ready to use; install it via Config.Reuse. A Reuse is
// NOT safe for concurrent use — parallel sweeps give each worker cell its
// own Reuse (see internal/runner).
//
// Ownership: with a Reuse installed, the collector inside the returned
// Result belongs to the Reuse and is reset by the next Run through it.
// Read (or copy) the metrics you need before starting the next run.
//
// Trajectory identity: a reused run is byte-identical to a fresh one —
// the collector is zeroed, the engine clock and heap restart empty, and
// the RNG is reseeded to the exact NewRNG stream. The scheduler is still
// the caller's: pass a fresh (or fully drained, state-free) scheduler per
// run when comparing trajectories.
type Reuse struct {
	col      *metrics.Collector
	st       Station
	stations [1]*Station
	eng      Engine
}

// collector returns the recycled collector reset for a new run, or a new
// one when the requested shape differs from the cached one.
func (ru *Reuse) collector(dims, levels int) *metrics.Collector {
	if ru.col == nil || ru.col.Dims() != dims || ru.col.Levels() != levels {
		ru.col = metrics.NewCollector(dims, levels)
		return ru.col
	}
	ru.col.Reset()
	return ru.col
}
