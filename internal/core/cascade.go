package core

import (
	"fmt"

	"sfcsched/internal/sfc"
)

// Cascade is the Cascaded-SFC disk scheduler of Fig. 2 as one value: the
// SFC1 → SFC2 → SFC3 encapsulator in front of the §3 dispatcher. Build
// fills in the EncapsulatorConfig and DispatcherConfig that NewScheduler
// takes. A zero Horizon leaves out the deadline stage and a zero R the
// seek stage.
type Cascade struct {
	// Name is the scheduler's display name.
	Name string
	// Curve names the SFC1 curve over Dims priority dimensions of Levels
	// levels each. "" skips SFC1: the first priority feeds stage 2.
	Curve  string
	Dims   int
	Levels int
	// Plane names a 2-D SFC2 curve over (deadline, priority), with the
	// priority on its Y axis when PriorityOnY. "" weighs the two as
	// priority + F·deadline.
	Plane       string
	PriorityOnY bool
	F           float64
	// Horizon bounds the deadline axis, µs; 0 skips SFC2. Span is the
	// deadline distance F = 1 weighs against the priority range, 0 the
	// horizon. Slack measures a deadline as the time left at enqueue
	// instead of an absolute time.
	Horizon int64
	Span    int64
	Slack   bool
	// R is the number of SFC3 partitions; 0 skips the seek stage.
	R int
	// Mode, SP and ER configure the dispatcher, Window its blocking window
	// as a fraction of the value space.
	Mode   PreemptMode
	Window float64
	SP, ER bool
}

// Build returns the scheduler c describes, for a disk of the given number
// of cylinders. Only the seek stage reads cylinders: without it the
// scheduler keeps no sweep timeline.
func (c Cascade) Build(cylinders int) (*Scheduler, error) {
	if c.Levels < 1 || c.Levels > MaxLevels {
		return nil, fmt.Errorf("core: Levels must be in [1, %d], got %d", MaxLevels, c.Levels)
	}
	if c.Horizon < 0 {
		return nil, fmt.Errorf("core: Horizon must not be negative (0 skips the deadline stage), got %d", c.Horizon)
	}
	if c.R < 0 {
		return nil, fmt.Errorf("core: R must not be negative (0 skips the seek stage), got %d", c.R)
	}
	ecfg := EncapsulatorConfig{
		Levels:      c.Levels,
		UseDeadline: c.Horizon > 0, F: c.F, DeadlineHorizon: c.Horizon, DeadlineSpan: c.Span, DeadlineSlack: c.Slack,
		Curve2PriorityOnY: c.PriorityOnY,
		UseCylinder:       c.R > 0, R: c.R,
	}
	var err error
	if c.Curve != "" {
		if ecfg.Curve1, err = sfc.New(c.Curve, c.Dims, uint32(c.Levels)); err != nil {
			return nil, err
		}
	}
	if c.Plane != "" {
		if ecfg.Curve2, err = sfc.New(c.Plane, 2, uint32(c.Levels)); err != nil {
			return nil, err
		}
	}
	if c.R > 0 {
		ecfg.Cylinders = cylinders
	}
	return NewScheduler(c.Name, ecfg, DispatcherConfig{Mode: c.Mode, SP: c.SP, ER: c.ER}, c.Window)
}
