package sim

import "sfcsched/internal/obs"

// DecisionMetrics aggregates the decision-observability counters of the
// package: decision-trace captures, shadow-scheduler divergence and
// telemetry sampling activity. It mirrors core.Metrics: atomic fields, a
// process-wide default, per-instance override via the owning object
// (DecisionTrace.SetMetrics, Shadow.SetMetrics, Telemetry.SetMetrics).
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

// DefaultDecisionMetrics is the process-wide aggregate every DecisionTrace,
// Shadow and Telemetry reports into unless overridden.
var DefaultDecisionMetrics = &DecisionMetrics{}

// Register registers every field of m under prefix (e.g.
// "sfcsched_decision") in reg.
func (m *DecisionMetrics) Register(reg *obs.Registry, prefix string) error {
	return reg.RegisterAll(prefix, []obs.Entry{
		{Name: "decisions", Help: "dispatch decisions captured by decision tracing", V: &m.Decisions},
		{Name: "drops", Help: "captured decisions that were deadline drops", V: &m.Drops},
		{Name: "candidate_depth", Help: "candidate-set size at decision time", V: &m.CandidateDepth},
		{Name: "choice_slack_us", Help: "deadline slack of the chosen request at dispatch, microseconds", V: &m.ChoiceSlack},
		{Name: "shadow_decisions", Help: "primary dispatches observed by shadow schedulers", V: &m.ShadowDecisions},
		{Name: "shadow_disagreements", Help: "shadow choices that differed from the primary", V: &m.ShadowDisagreements},
		{Name: "telemetry_samples", Help: "telemetry rows recorded", V: &m.TelemetrySamples},
	})
}
