package fault

import "sfcsched/internal/obs"

// Metrics aggregates fault-injection observability counters, mirroring
// core.Metrics: atomic fields, counted only into the sink a plan installs
// (Plan.Metrics).
type Metrics struct {
	// Transients counts injected transient read errors.
	Transients obs.Counter
	// Retries counts request re-enqueues after a transient error.
	Retries obs.Counter
	// Exhausted counts requests abandoned after the retry budget.
	Exhausted obs.Counter
	// DiskFailures counts whole-disk failures.
	DiskFailures obs.Counter
	// ReconstructReads counts survivor reads issued to serve degraded
	// reads of a failed disk.
	ReconstructReads obs.Counter
	// RebuildReads counts survivor reads issued by the background rebuild.
	RebuildReads obs.Counter

	// Degraded is 1 while a disk is down, 0 otherwise.
	Degraded obs.Gauge
	// RebuildProgress is the number of per-disk blocks rebuilt so far.
	RebuildProgress obs.Gauge
	// DegradedWindowUs is the duration of the last completed degraded
	// window (failure to rebuild completion), µs.
	DegradedWindowUs obs.Gauge
}
