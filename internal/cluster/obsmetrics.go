package cluster

// ---- bench-pinned block --------------------------------------------------
//
// The frozen bench/ installs a Metrics through Config.Metrics. Every number
// the sink used to count is in Result (PerClass, PerNode), so the type is
// kept field-less and Run ignores it. The benchmark thaw deletes this block
// and the Config field. No non-test code outside bench/ may use it.

// Metrics counts nothing.
type Metrics struct{}

// ---- end bench-pinned block ----------------------------------------------
