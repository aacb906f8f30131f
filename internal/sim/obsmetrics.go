package sim

// ---- bench-pinned block --------------------------------------------------
//
// The frozen bench/ installs a DecisionMetrics on its decision trace, shadows
// and telemetry sampler. Every number the sink used to count is in
// DecisionTrace.Total, the record stream, ShadowReport or Telemetry.Rows, so
// the type is kept field-less and the three SetMetrics methods do nothing.
// The benchmark thaw deletes this block. No non-test code outside bench/ may
// use it.

// DecisionMetrics counts nothing.
type DecisionMetrics struct{}

// SetMetrics does nothing.
func (t *DecisionTrace) SetMetrics(*DecisionMetrics) {}

// SetMetrics does nothing.
func (sh *Shadow) SetMetrics(*DecisionMetrics) {}

// SetMetrics does nothing.
func (tel *Telemetry) SetMetrics(*DecisionMetrics) {}

// ---- end bench-pinned block ----------------------------------------------
