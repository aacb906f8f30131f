package serve

import "sfcsched/internal/obs"

// Metrics aggregates the serving layer's observability counters, exported
// under the sfcsched_serve_* prefix. A Dispatcher counts only into the sink
// its Config installs, mirroring the core.Metrics wiring; with none it
// counts nothing.
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
	// WallService is the distribution of wall-clock time per served
	// request, microseconds, from the clock reading its dispatch decision
	// was made at to the backend's return: what the dilated sleep actually
	// cost, plus the dispatch bookkeeping between the decision and the
	// backend call.
	WallService obs.Histogram
}

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
		{Name: "wall_service_us", Help: "wall-clock time from dispatch decision to service completion, microseconds", V: &m.WallService},
	})
}
