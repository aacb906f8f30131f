//go:build race

package sched

// raceEnabled reports whether the race detector is active; allocation
// gates skip under it.
const raceEnabled = true
