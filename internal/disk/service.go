package disk

import (
	"fmt"

	"sfcsched/internal/stats"
)

// ServiceModel is the service-time policy layered over a Model — the disk's
// seek, average rotational latency and transfer, or a fixed constant — so
// the simulator's stations and the real-clock serving backends of
// internal/serve compute service times through exactly one code path.
//
// The zero value is invalid; Disk must be set unless FixedService is
// positive.
type ServiceModel struct {
	// Disk models seek/rotation/transfer times. Nil requires FixedService.
	Disk *Model
	// FixedService, when positive, overrides the disk model with a
	// constant service time (pure queueing experiments).
	FixedService int64
}

// Validate reports whether the model can compute a service time at all.
func (m ServiceModel) Validate() error {
	if m.Disk == nil && m.FixedService <= 0 {
		return fmt.Errorf("disk: ServiceModel needs a Disk model or a positive FixedService")
	}
	return nil
}

// Cylinders returns the cylinder count of the underlying geometry, or 0
// for a fixed-service model with no disk.
func (m ServiceModel) Cylinders() int {
	if m.Disk == nil {
		return 0
	}
	return m.Disk.Cylinders
}

// Times returns (seekTime, totalServiceTime) for a service of size bytes
// at cylinder cyl with the head at cylinder head, both in microseconds.
// Every service is charged the average rotational latency. The rng
// argument is unused; it stays until the frozen benchmark, which passes
// nil, is next changed.
func (m ServiceModel) Times(head, cyl int, size int64, _ *stats.RNG) (int64, int64) {
	if m.FixedService > 0 {
		return 0, m.FixedService
	}
	seek := m.Disk.SeekTime(head, cyl)
	return seek, seek + m.Disk.AvgRotationalLatency() + m.Disk.TransferTime(cyl, size)
}
