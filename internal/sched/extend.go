package sched

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/sfc"
)

// This file implements the paper's §4.3 extensibility recipes: existing
// schedulers gain capabilities they were not designed for by borrowing one
// stage of the cascade.
//
//   - A single-priority scheduler (Kamel's deadline-driven algorithm [12],
//     the multi-queue scheduler [4]) handles multiple priority types by
//     collapsing them through SFC1 first.
//   - A seek-blind scheduler (BUCKET [9]) gains disk-utilization awareness
//     by passing its output through SFC3 with the cylinder position.

// SFC1Priority returns a function that collapses a request's D priority
// dimensions into one absolute priority level in [0, outLevels) using the
// given curve — §4.3's "the multiple priorities [are] entered to SFC1 and
// the output is considered the absolute priority of the disk request".
func SFC1Priority(curve sfc.Curve, levels, outLevels int) (func(*core.Request) int, error) {
	if curve == nil {
		return nil, fmt.Errorf("sched: SFC1Priority needs a curve")
	}
	if levels < 1 || outLevels < 1 {
		return nil, fmt.Errorf("sched: invalid level counts %d/%d", levels, outLevels)
	}
	enc, err := core.NewEncapsulator(core.EncapsulatorConfig{Curve1: curve, Levels: levels})
	if err != nil {
		return nil, err
	}
	max := enc.MaxValue()
	return func(r *core.Request) int {
		v := enc.Value(r, 0, 0)
		return int(v * uint64(outLevels) / max)
	}, nil
}

// NewKamelMulti returns Kamel's deadline-driven scheduler extended to
// multi-dimensional priorities: eviction victims are chosen by the SFC1
// collapse of their priority vector instead of a single native level.
func NewKamelMulti(est Estimator, curve sfc.Curve, levels, outLevels int) (*Kamel, error) {
	pf, err := SFC1Priority(curve, levels, outLevels)
	if err != nil {
		return nil, err
	}
	k := NewKamel(est)
	k.Priority = pf
	return k, nil
}

// NewMultiQueueMulti returns the multi-queue scheduler extended to
// multi-dimensional priorities via SFC1.
func NewMultiQueueMulti(curve sfc.Curve, levels, outLevels int) (*MultiQueue, error) {
	pf, err := SFC1Priority(curve, levels, outLevels)
	if err != nil {
		return nil, err
	}
	m := NewMultiQueue(outLevels)
	m.Level = pf
	return m, nil
}

// bucketSeek is NewBUCKETSeek's insertion criterion.
type bucketSeek struct{ values, r, cylinders int }

// ValueAt implements core.Valuer. Higher Value means a more important
// request and therefore an earlier partition.
func (b bucketSeek) ValueAt(r *core.Request, _ int64, head int, progress uint64) uint64 {
	v := min(max(r.Value, 1), b.values)
	pn := uint64(b.values-v) * uint64(b.r) / uint64(b.values)
	cyl := min(max(r.Cylinder, 0), b.cylinders-1)
	head = min(max(head, 0), b.cylinders-1)
	ahead := uint64((cyl - head + b.cylinders) % b.cylinders)
	yv := progress + ahead + pn*uint64(b.cylinders)
	return yv*uint64(b.values) + uint64(b.values-v)
}

// NewBUCKETSeek returns the BUCKET value scheduler extended with the
// cascade's SFC3 stage, over the given value range (requests carry Value in
// [1, values]) with R scan partitions: the bucket rank becomes the X
// coordinate of the R-partitioned cyclic scan, so each value band is served
// in sweep order instead of pure EDF — §4.3's "take the output of the
// BUCKET algorithm and enter it into SFC3 ... with the cylinder position".
func NewBUCKETSeek(values, r, cylinders int) (*core.Scheduler, error) {
	if values < 1 || r < 1 || cylinders < 1 {
		return nil, fmt.Errorf("sched: invalid BUCKETSeek config values=%d r=%d cylinders=%d", values, r, cylinders)
	}
	return core.NewValueScheduler("bucket-seek", bucketSeek{values, r, cylinders}, cylinders,
		core.DispatcherConfig{Mode: core.FullyPreemptive})
}
