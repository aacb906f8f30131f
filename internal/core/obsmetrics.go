package core

import (
	"sfcsched/internal/obs"
)

// Metrics aggregates the scheduler's runtime observability counters. All
// fields are safe for concurrent update and may be scraped (via an
// obs.Registry) while dispatch loops are running; every record is a few
// atomic instructions, so the Add/Next zero-allocation gates hold with
// instrumentation enabled.
//
// A Dispatcher or Scheduler counts only into the sink its owner installs
// with SetMetrics; with none it counts nothing, at the cost of one nil
// check per counting site. The owner registers the sink it installed (see
// Metrics.Register) when it wants the counts scraped.
type Metrics struct {
	// Adds counts requests enqueued (Add and AddBatch items).
	Adds obs.Counter
	// Dispatches counts requests handed out by Next.
	Dispatches obs.Counter
	// QueueDepthHiWater tracks the largest queue depth seen at enqueue.
	QueueDepthHiWater obs.MaxGauge

	// Preemptions counts arrivals that jumped into the serving queue
	// (ConditionallyPreemptive mode).
	Preemptions obs.Counter
	// Promotions counts SP promotions from q' into q.
	Promotions obs.Counter
	// Swaps counts q/q' batch swaps.
	Swaps obs.Counter
	// WindowExpansions counts ER blocking-window growth events.
	WindowExpansions obs.Counter
	// WindowResets counts ER window resets back to the configured width.
	WindowResets obs.Counter

	// SweepProgress is the cumulative number of cylinders the head has
	// swept (cyclically) on the SFC3 scan timeline.
	SweepProgress obs.Gauge

	// DispatchWait is the distribution of simulated queueing delay: the
	// time from a request's arrival to its dispatch, in the scheduler's
	// clock units (microseconds throughout this repo).
	DispatchWait obs.Histogram
}

// Register registers every field of m under prefix (e.g. "sfcsched") in
// reg. Metric names follow Prometheus conventions; counters gain a _total
// suffix at export time.
func (m *Metrics) Register(reg *obs.Registry, prefix string) error {
	return reg.RegisterAll(prefix, []obs.Entry{
		{Name: "adds", Help: "requests enqueued", V: &m.Adds},
		{Name: "dispatches", Help: "requests dispatched", V: &m.Dispatches},
		{Name: "queue_depth_hiwater", Help: "largest queue depth seen at enqueue", V: &m.QueueDepthHiWater},
		{Name: "preemptions", Help: "arrivals that preempted into the serving queue", V: &m.Preemptions},
		{Name: "promotions", Help: "SP promotions from the waiting queue", V: &m.Promotions},
		{Name: "swaps", Help: "serving/waiting queue batch swaps", V: &m.Swaps},
		{Name: "window_expansions", Help: "ER blocking-window growth events", V: &m.WindowExpansions},
		{Name: "window_resets", Help: "ER blocking-window resets", V: &m.WindowResets},
		{Name: "sweep_progress_cylinders", Help: "cumulative cylinders swept on the scan timeline", V: &m.SweepProgress},
		{Name: "dispatch_wait_us", Help: "arrival-to-dispatch delay, microseconds", V: &m.DispatchWait},
	})
}

// noteDispatch records a dispatch and its queueing delay at time now.
func (m *Metrics) noteDispatch(r *Request, now int64) {
	m.Dispatches.Inc()
	if w := now - r.Arrival; w >= 0 {
		m.DispatchWait.Observe(uint64(w))
	}
}
