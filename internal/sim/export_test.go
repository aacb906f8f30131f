package sim

// The queue-view oracle (view_test.go) runs in package sim_test, so that
// it can drive internal/cluster, which imports sim; it reuses the sort
// reference of decision_test.go through these names.
var (
	SortSummary = sortSummary
	SameSummary = sameSummary
)
