package fault

// ---- bench-pinned block --------------------------------------------------
//
// The frozen bench/ installs a Metrics through Plan.Metrics. Every number
// the sink used to count is in Stats or the run's ArrayResult, so the type
// is kept field-less and the injector ignores it. The benchmark thaw deletes
// this block and the Plan field. No non-test code outside bench/ may use it.

// Metrics counts nothing.
type Metrics struct{}

// ---- end bench-pinned block ----------------------------------------------
