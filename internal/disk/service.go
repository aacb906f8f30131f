package disk

import (
	"fmt"

	"sfcsched/internal/stats"
)

// ServiceModel is the service-time policy layered over a Model: the three
// knobs every topology shares (override with a fixed constant, sample or
// average the rotational latency) folded into one value
// so the simulator's stations and the real-clock serving backends of
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
	// SampleRotation draws the rotational latency from the caller's RNG
	// instead of charging the deterministic average. Ignored when the
	// caller passes a nil RNG (real-clock backends have no simulation RNG
	// stream and always charge the average).
	SampleRotation bool
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
// Exactly one RNG draw happens per sampled-rotation call (and none
// otherwise), which keeps simulation runs reproducible draw for draw.
func (m ServiceModel) Times(head, cyl int, size int64, rng *stats.RNG) (int64, int64) {
	if m.FixedService > 0 {
		return 0, m.FixedService
	}
	seek := m.Disk.SeekTime(head, cyl)
	rot := m.Disk.AvgRotationalLatency()
	if m.SampleRotation && rng != nil {
		rot = m.Disk.RotationalLatency(rng)
	}
	return seek, seek + rot + m.Disk.TransferTime(cyl, size)
}
