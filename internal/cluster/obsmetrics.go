package cluster

import "sfcsched/internal/obs"

// Metrics aggregates the cluster-layer counters: admission outcomes,
// routing activity and per-request completion latency. It mirrors
// core.Metrics: atomic fields, a process-wide default, per-run override
// via Config.Metrics.
type Metrics struct {
	// Arrivals counts requests offered to the cluster.
	Arrivals obs.Counter
	// AdmitDropped counts requests rejected by admission control.
	AdmitDropped obs.Counter
	// Routed counts admitted requests handed to a node.
	Routed obs.Counter
	// Served counts completed services.
	Served obs.Counter
	// DispatchDropped counts requests dropped at dispatch time (deadline
	// expired under DropLate).
	DispatchDropped obs.Counter
	// LateStarts counts services that started past their deadline
	// (without DropLate).
	LateStarts obs.Counter
	// LatencyUS is the completion latency distribution of served
	// requests (completion − arrival), µs.
	LatencyUS obs.Histogram
	// NodeDepthMax is the high-water backlog of the routed node observed
	// at routing time.
	NodeDepthMax obs.MaxGauge
}

// DefaultMetrics is the process-wide aggregate every cluster run reports
// into unless overridden via Config.Metrics.
var DefaultMetrics = &Metrics{}

// Register registers every field of m under prefix (e.g.
// "sfcsched_cluster") in reg.
func (m *Metrics) Register(reg *obs.Registry, prefix string) error {
	return reg.RegisterAll(prefix, []obs.Entry{
		{Name: "arrivals", Help: "requests offered to the cluster", V: &m.Arrivals},
		{Name: "admit_dropped", Help: "requests rejected by admission control", V: &m.AdmitDropped},
		{Name: "routed", Help: "admitted requests handed to a node", V: &m.Routed},
		{Name: "served", Help: "completed services", V: &m.Served},
		{Name: "dispatch_dropped", Help: "requests dropped at dispatch (deadline expired)", V: &m.DispatchDropped},
		{Name: "late_starts", Help: "services started past their deadline", V: &m.LateStarts},
		{Name: "latency_us", Help: "completion latency of served requests, microseconds", V: &m.LatencyUS},
		{Name: "node_depth_max", Help: "high-water backlog of the routed node", V: &m.NodeDepthMax},
	})
}

// MustRegister is Register for static wiring.
func (m *Metrics) MustRegister(reg *obs.Registry, prefix string) {
	if err := m.Register(reg, prefix); err != nil {
		panic(err)
	}
}
