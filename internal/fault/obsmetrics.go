package fault

import "sfcsched/internal/obs"

// Metrics aggregates fault-injection observability counters, mirroring
// core.Metrics: atomic fields, a process-wide default, and per-plan
// override via Plan.Metrics.
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

// DefaultMetrics is the process-wide aggregate every injector reports
// into unless the plan overrides it.
var DefaultMetrics = &Metrics{}

// Register registers every field of m under prefix (e.g. "sfcsched_fault")
// in reg.
func (m *Metrics) Register(reg *obs.Registry, prefix string) error {
	return reg.RegisterAll(prefix, []obs.Entry{
		{Name: "transients", Help: "injected transient read errors", V: &m.Transients},
		{Name: "retries", Help: "fault-induced request re-enqueues", V: &m.Retries},
		{Name: "exhausted", Help: "requests abandoned after the retry budget", V: &m.Exhausted},
		{Name: "disk_failures", Help: "whole-disk failures", V: &m.DiskFailures},
		{Name: "reconstruct_reads", Help: "survivor reads serving degraded reads", V: &m.ReconstructReads},
		{Name: "rebuild_reads", Help: "survivor reads issued by the rebuild", V: &m.RebuildReads},
		{Name: "degraded", Help: "1 while a disk is down", V: &m.Degraded},
		{Name: "rebuild_progress_blocks", Help: "per-disk blocks rebuilt so far", V: &m.RebuildProgress},
		{Name: "degraded_window_us", Help: "duration of the last degraded window, microseconds", V: &m.DegradedWindowUs},
	})
}
