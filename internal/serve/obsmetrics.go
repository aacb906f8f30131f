package serve

import "sfcsched/internal/obs"

// Metrics aggregates the serving layer's observability counters, exported
// under the sfcsched_serve_* prefix. Every Dispatcher reports into
// DefaultMetrics unless Config.Metrics overrides it, mirroring the
// core.Metrics wiring.
type Metrics struct {
	// Submitted counts requests accepted into the scheduler by Submit.
	Submitted obs.Counter
	// Rejected counts submissions refused because the ingress was closed.
	Rejected obs.Counter
	// Dispatched counts requests the workers handed to the backend
	// (plus drops: every dequeue is a dispatch decision).
	Dispatched obs.Counter
	// Completed counts services the backend finished successfully.
	Completed obs.Counter
	// Dropped counts requests discarded at dispatch because their deadline
	// had already passed (Config.DropLate).
	Dropped obs.Counter
	// Abandoned counts requests whose service was cut short by Stop or
	// context cancellation, plus requests still queued at Stop.
	Abandoned obs.Counter
	// BackpressureWaits counts Submit calls that blocked on the MaxQueue
	// quota before entering the scheduler.
	BackpressureWaits obs.Counter
	// Drains counts completed graceful shutdowns.
	Drains obs.Counter
	// HeadTravelCylinders accumulates emulated head movement.
	HeadTravelCylinders obs.Counter
	// InFlight is the number of services currently running on the backend.
	InFlight obs.Gauge
	// ModelLatency is the distribution of arrival-to-completion time on the
	// model clock, microseconds — directly comparable with the simulator's
	// response times.
	ModelLatency obs.Histogram
	// WallService is the distribution of wall-clock time spent per backend
	// service, microseconds: what the dilated sleep actually cost.
	WallService obs.Histogram
}

// DefaultMetrics is the process-wide aggregate every Dispatcher reports
// into unless overridden via Config.Metrics.
var DefaultMetrics = &Metrics{}

// Register registers every field of m under prefix (conventionally
// "sfcsched_serve") in reg.
func (m *Metrics) Register(reg *obs.Registry, prefix string) error {
	return reg.RegisterAll(prefix, []obs.Entry{
		{Name: "submitted", Help: "requests accepted into the serving scheduler", V: &m.Submitted},
		{Name: "rejected", Help: "submissions refused by a closed ingress", V: &m.Rejected},
		{Name: "dispatched", Help: "dispatch decisions (services plus drops)", V: &m.Dispatched},
		{Name: "completed", Help: "services completed by the backend", V: &m.Completed},
		{Name: "dropped", Help: "requests dropped at dispatch past their deadline", V: &m.Dropped},
		{Name: "abandoned", Help: "requests abandoned by Stop or cancellation", V: &m.Abandoned},
		{Name: "backpressure_waits", Help: "Submit calls that blocked on the queue quota", V: &m.BackpressureWaits},
		{Name: "drains", Help: "completed graceful shutdowns", V: &m.Drains},
		{Name: "head_travel_cylinders", Help: "cumulative emulated head movement", V: &m.HeadTravelCylinders},
		{Name: "inflight", Help: "services currently running on the backend", V: &m.InFlight},
		{Name: "model_latency_us", Help: "arrival-to-completion time on the model clock, microseconds", V: &m.ModelLatency},
		{Name: "wall_service_us", Help: "wall-clock time per backend service, microseconds", V: &m.WallService},
	})
}

// CalibMetrics exposes the latest calibration scores under the
// sfcsched_calib_* prefix. Scores are float ratios stored in gauges as
// parts per million (the obs gauges are integral): 1_000_000 ppm = a MAPE
// of 100% or a correlation of 1.0.
type CalibMetrics struct {
	// Runs counts completed calibration runs.
	Runs obs.Counter
	// AlignedRequests counts requests matched between the simulated and
	// live records across all runs.
	AlignedRequests obs.Counter
	// LatencyMAPEPpm is the last run's per-request latency MAPE, ppm
	// (1e6 = 100%). -1 when the score was undefined.
	LatencyMAPEPpm obs.Gauge
	// OrderPearsonPpm is the last run's Pearson correlation between
	// simulated and live dispatch ranks, ppm (1e6 = r of 1.0). -2e6 when
	// the score was undefined.
	OrderPearsonPpm obs.Gauge
	// HeadTravelDeltaPpm is the last run's live-vs-sim head-travel
	// difference relative to sim, ppm.
	HeadTravelDeltaPpm obs.Gauge
}

// DefaultCalibMetrics is the process-wide aggregate Calibrate reports into
// unless overridden via CalibrationConfig.CalibMetrics.
var DefaultCalibMetrics = &CalibMetrics{}

// Register registers every field of m under prefix (conventionally
// "sfcsched_calib") in reg.
func (m *CalibMetrics) Register(reg *obs.Registry, prefix string) error {
	return reg.RegisterAll(prefix, []obs.Entry{
		{Name: "runs", Help: "completed calibration runs", V: &m.Runs},
		{Name: "aligned_requests", Help: "requests matched between sim and live records", V: &m.AlignedRequests},
		{Name: "latency_mape_ppm", Help: "last run's per-request latency MAPE, ppm (1e6 = 100%)", V: &m.LatencyMAPEPpm},
		{Name: "order_pearson_ppm", Help: "last run's dispatch-order Pearson r, ppm (1e6 = 1.0)", V: &m.OrderPearsonPpm},
		{Name: "head_travel_delta_ppm", Help: "last run's (live-sim)/sim head-travel delta, ppm", V: &m.HeadTravelDeltaPpm},
	})
}
