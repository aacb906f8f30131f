//go:build race

package cluster

// raceEnabled reports whether the race detector is active; allocation
// gates skip under it (instrumentation allocates on its own).
const raceEnabled = true
