package cluster

import "sfcsched/internal/obs"

// Metrics aggregates the cluster-layer counters: admission outcomes,
// routing activity and per-request completion latency. It mirrors
// core.Metrics: atomic fields, counted only into the sink a run installs
// (Config.Metrics).
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
