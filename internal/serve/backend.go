package serve

import (
	"context"
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
)

// Completion reports what one backend service cost, in model microseconds.
type Completion struct {
	// Seek is the head-positioning component of the service.
	Seek int64
	// Service is the total service time (seek + rotation + transfer, or
	// whatever the backend's policy charges).
	Service int64
}

// Backend executes one request with the head at the given cylinder and
// returns its cost. Serve blocks for however long the service takes on
// this backend's clock and must return promptly (with ctx.Err) when ctx is
// canceled. Serve is called concurrently up to the dispatcher's in-flight
// bound.
type Backend interface {
	// Serve executes r with the head currently at cylinder head.
	Serve(ctx context.Context, r *core.Request, head int) (Completion, error)
	// Cylinders returns the cylinder count targets are clamped to, or 0
	// when the backend has no geometry (fixed-service backends).
	Cylinders() int
}

// EmulatedDisk is a Backend that charges the analytical disk model
// (disk.ServiceModel — the same code path the simulator's stations use) by
// sleeping the dilated wall-clock equivalent of each service. Rotational
// latency is always the deterministic average: a wall-clock run has real
// jitter of its own, and keeping the model side deterministic is what lets
// Calibrate attribute any divergence to the serving path rather than to
// RNG draw-order differences.
type EmulatedDisk struct {
	model disk.ServiceModel
	clock *Clock
}

// NewEmulatedDisk validates the service model and binds it to a clock.
func NewEmulatedDisk(m disk.ServiceModel, c *Clock) (*EmulatedDisk, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("serve: emulated disk requires a clock")
	}
	return &EmulatedDisk{model: m, clock: c}, nil
}

// Cylinders returns the disk geometry's cylinder count (0 for a diskless
// fixed-service model).
func (e *EmulatedDisk) Cylinders() int { return e.model.Cylinders() }

// Serve charges the model's service time for r by sleeping it out on the
// emulated disk's dilated clock.
func (e *EmulatedDisk) Serve(ctx context.Context, r *core.Request, head int) (Completion, error) {
	target := r.Cylinder
	if n := e.Cylinders(); n > 0 { // 0: no geometry to clamp onto
		target = min(max(target, 0), n-1)
	}
	seek, svc := e.model.Times(head, target, r.Size, nil)
	if err := e.clock.SleepFor(ctx, svc); err != nil {
		return Completion{}, err
	}
	return Completion{Seek: seek, Service: svc}, nil
}
