package core

import (
	"fmt"

	"sfcsched/internal/sfc"
)

// SingleStage is the predecessor design of the paper's reference [2]
// (Aref, El-Bassyouni, Kamel & Mokbel, IDEAS 2002): ONE space-filling
// curve over the full (D+2)-dimensional space — priorities, deadline and
// cylinder as equal axes of a single grid — instead of three cascaded
// stages. It exists here as the baseline that motivates the cascade: a
// single curve cannot give the deadline axis EDF semantics or the
// cylinder axis scan semantics, so it trades every goal against every
// other at the curve's mercy.
type SingleStage struct {
	curve  sfc.Curve
	levels int
	// Deadline axis bounds, absolute µs (0 disables the axis).
	deadlineHorizon int64
	// Cylinder axis size (0 disables the axis).
	cylinders int
	dims      int // priority dimensions = curve dims - extra axes

	// Value's working memory: a SingleStage is owned by one scheduler.
	p       sfc.Point
	scratch []uint32
}

// NewSingleStage builds the single-curve scheduler core. The curve must
// have priorityDims (+1 per enabled extra axis) dimensions: priorities
// occupy the low axes, the deadline the next, the cylinder the last.
func NewSingleStage(curveName string, priorityDims, levels int, deadlineHorizon int64, cylinders int) (*SingleStage, error) {
	if priorityDims < 0 || levels < 1 {
		return nil, fmt.Errorf("core: invalid priority shape %d/%d", priorityDims, levels)
	}
	total := priorityDims
	if deadlineHorizon > 0 {
		total++
	}
	if cylinders > 0 {
		total++
	}
	if total == 0 {
		return nil, fmt.Errorf("core: single-stage scheduler needs at least one axis")
	}
	side := uint32(levels)
	if side < 64 && (deadlineHorizon > 0 || cylinders > 0) {
		// The deadline and cylinder axes need more resolution than a
		// handful of priority levels; a uniform grid must host the finest.
		side = 64
	}
	curve, err := sfc.New(curveName, total, side)
	if err != nil {
		return nil, err
	}
	return &SingleStage{
		curve:           curve,
		levels:          levels,
		deadlineHorizon: deadlineHorizon,
		cylinders:       cylinders,
		dims:            priorityDims,
		p:               make(sfc.Point, total),
		scratch:         make([]uint32, curve.ScratchLen()),
	}, nil
}

// MaxValue returns the exclusive bound on Value results.
func (s *SingleStage) MaxValue() uint64 { return s.curve.MaxIndex() }

// Value maps the request onto the single curve. Not safe for concurrent
// use.
func (s *SingleStage) Value(r *Request, now int64, head int) uint64 {
	p := s.p
	side := uint64(s.curve.Side())
	axis := 0
	for ; axis < s.dims; axis++ {
		l := 0
		if axis < len(r.Priorities) {
			l = clampLevel(r.Priorities[axis], s.levels)
		}
		p[axis] = uint32(uint64(l) * side / uint64(s.levels))
	}
	if s.deadlineHorizon > 0 {
		d := r.Deadline
		if d == 0 || d > s.deadlineHorizon {
			d = s.deadlineHorizon
		}
		if d < 0 {
			d = 0
		}
		p[axis] = uint32(scale(uint64(d), uint64(s.deadlineHorizon)+1, side))
		axis++
	}
	if s.cylinders > 0 {
		// Both on the disk: IndexFast does not validate the point.
		cyl := min(max(r.Cylinder, 0), s.cylinders-1)
		head = min(max(head, 0), s.cylinders-1)
		ahead := uint64((cyl - head + s.cylinders) % s.cylinders)
		p[axis] = uint32(ahead * side / uint64(s.cylinders))
	}
	return s.curve.IndexFast(p, s.scratch)
}

// NewSingleStageScheduler puts the single-stage core in front of a
// dispatcher.
func NewSingleStageScheduler(name, curveName string, priorityDims, levels int, deadlineHorizon int64, cylinders int, dcfg DispatcherConfig) (*Scheduler, error) {
	ss, err := NewSingleStage(curveName, priorityDims, levels, deadlineHorizon, cylinders)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = "single-" + curveName
	}
	return NewValueScheduler(name, ValueFunc(ss.Value), 0, dcfg)
}
