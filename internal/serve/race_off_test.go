//go:build !race

package serve

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
