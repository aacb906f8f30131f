package sim

import "sfcsched/internal/obs"

// DecisionMetrics aggregates the decision-observability counters of the
// package: decision-trace captures, shadow-scheduler divergence and
// telemetry sampling activity. It mirrors core.Metrics: atomic fields,
// counted only into the sink the owning object installs
// (DecisionTrace.SetMetrics, Shadow.SetMetrics, Telemetry.SetMetrics);
// with none installed an observer counts nothing.
//
// Nothing here is touched while decision tracing, shadows and telemetry
// are all disabled, so the zero-overhead guarantee of the plain simulation
// path is unaffected.
type DecisionMetrics struct {
	// Decisions counts captured dispatch decisions (served or dropped).
	Decisions obs.Counter
	// Drops counts captured decisions that were deadline drops.
	Drops obs.Counter
	// CandidateDepth is the distribution of candidate-set sizes at
	// decision time (the queue depth the dispatcher chose from).
	CandidateDepth obs.Histogram
	// ChoiceSlack is the distribution of the chosen request's deadline
	// slack at dispatch, µs (negative slack clamps to 0; requests without
	// deadlines are not recorded).
	ChoiceSlack obs.Histogram
	// ShadowDecisions counts primary dispatches observed by shadows.
	ShadowDecisions obs.Counter
	// ShadowDisagreements counts shadow decisions that picked a different
	// request than the primary scheduler.
	ShadowDisagreements obs.Counter
	// TelemetrySamples counts telemetry rows recorded (one per station per
	// sampling boundary).
	TelemetrySamples obs.Counter
}
