// Package metrics collects the evaluation quantities of the paper's §5-6:
// per-dimension priority inversions (Figs. 5-7, 10a; Fig. 7a's fairness is
// their standard deviation), deadline misses per priority level and
// dimension (Figs. 8-10b), seek time (Fig. 10c) and the §6 weighted-loss
// cost function (Fig. 11).
package metrics

import (
	"fmt"
	"sync"

	"sfcsched/internal/core"
)

// Collector accumulates run metrics. Create one per simulation run.
type Collector struct {
	dims   int
	levels int

	// InversionsPerDim[k] counts, summed over every dispatch, the pending
	// requests that had strictly higher priority than the dispatched one
	// in dimension k (the paper's §5.1 definition).
	InversionsPerDim []uint64

	// MissesPerDimLevel[k][l] counts deadline misses of requests whose
	// priority in dimension k was level l.
	MissesPerDimLevel [][]uint64
	// RequestsPerDimLevel[k][l] counts all arrived requests by level.
	RequestsPerDimLevel [][]uint64

	Arrived uint64
	Served  uint64
	Dropped uint64 // deadline passed before service started
	Late    uint64 // served, but finished after the deadline

	// FaultAttempts counts service attempts that failed on an injected
	// fault; their seek and busy time still accrue to SeekTime and
	// ServiceTime (the head moved and the disk was occupied).
	FaultAttempts uint64
	// FaultDropped counts the subset of Dropped attributable to faults
	// (retry budget exhausted, deadline expired during a retry backoff, or
	// stranded on a failed disk). Dropped - FaultDropped is the share
	// attributable to load alone.
	FaultDropped uint64

	SeekTime    int64 // total head-movement time, µs
	ServiceTime int64 // total busy time, µs
	Makespan    int64 // completion time of the run, µs
}

// NewCollector returns a collector for requests with the given number of
// priority dimensions and levels per dimension.
func NewCollector(dims, levels int) *Collector {
	if dims < 0 {
		dims = 0
	}
	if levels < 1 {
		levels = 1
	}
	c := &Collector{
		dims:                dims,
		levels:              levels,
		InversionsPerDim:    make([]uint64, dims),
		MissesPerDimLevel:   make([][]uint64, dims),
		RequestsPerDimLevel: make([][]uint64, dims),
	}
	for k := 0; k < dims; k++ {
		c.MissesPerDimLevel[k] = make([]uint64, levels)
		c.RequestsPerDimLevel[k] = make([]uint64, levels)
	}
	return c
}

// Reset clears every counter in place, retaining the per-dimension slices,
// so a collector can be recycled across runs (sim.Reuse) instead of
// reallocated. The dims/levels shape is
// unchanged; a run needing a different shape needs a new collector.
func (c *Collector) Reset() {
	clear(c.InversionsPerDim)
	for k := range c.MissesPerDimLevel {
		clear(c.MissesPerDimLevel[k])
		clear(c.RequestsPerDimLevel[k])
	}
	c.Arrived, c.Served, c.Dropped, c.Late = 0, 0, 0, 0
	c.FaultAttempts, c.FaultDropped = 0, 0
	c.SeekTime, c.ServiceTime, c.Makespan = 0, 0, 0
}

// Dims returns the number of tracked priority dimensions.
func (c *Collector) Dims() int { return c.dims }

// Levels returns the number of priority levels per dimension.
func (c *Collector) Levels() int { return c.levels }

// clampLevel folds out-of-range levels into the tracked range.
func (c *Collector) clampLevel(l int) int {
	if l < 0 {
		return 0
	}
	if l >= c.levels {
		return c.levels - 1
	}
	return l
}

// OnArrival records an arriving request.
func (c *Collector) OnArrival(r *core.Request) {
	c.Arrived++
	for k := 0; k < c.dims && k < len(r.Priorities); k++ {
		c.RequestsPerDimLevel[k][c.clampLevel(r.Priorities[k])]++
	}
}

// dispatchVisitor binds one dispatch for the OnDispatch queue walk: the
// dispatched request's priorities clipped to the tracked dimensions, and
// the counters they are compared into. The visit closure captures only the
// visitor, so it is built once per pooled visitor and rebound through the
// fields; the pool (rather than a field of Collector) keeps collectors
// plain data that reflect.DeepEqual can compare.
type dispatchVisitor struct {
	rp    []int
	inv   []uint64
	visit func(*core.Request)
}

var visitorPool = sync.Pool{New: func() any {
	v := &dispatchVisitor{}
	// Priority levels of queued requests are close to uniformly random, so
	// a conditional increment mispredicts about every other comparison;
	// adding the comparison's 0/1 result instead keeps the loop free of
	// data-dependent branches.
	v.visit = func(w *core.Request) {
		n := min(len(w.Priorities), len(v.rp))
		wp, rp, inv := w.Priorities[:n], v.rp[:n], v.inv[:n]
		for k := range wp {
			var d uint64
			if wp[k] < rp[k] {
				d = 1
			}
			inv[k] += d
		}
	}
	return v
}}

// OnDispatch records the dispatch of r while the requests visited by
// pending are still queued; it accumulates the per-dimension priority
// inversions caused by serving r ahead of them.
func (c *Collector) OnDispatch(r *core.Request, pending func(func(*core.Request))) {
	if c.dims == 0 {
		return
	}
	v := visitorPool.Get().(*dispatchVisitor)
	v.rp, v.inv = r.Priorities[:min(c.dims, len(r.Priorities))], c.InversionsPerDim
	pending(v.visit)
	v.rp, v.inv = nil, nil
	visitorPool.Put(v)
}

// OnServed records a completed service. It reads neither r nor start; the
// signature stays until bench/, which calls it, next changes.
func (c *Collector) OnServed(r *core.Request, seek, service, start int64) {
	c.Served++
	c.SeekTime += seek
	c.ServiceTime += service
}

// OnFaultAttempt records a service attempt that failed on an injected
// fault: the attempt's seek and busy time are charged, but nothing is
// served.
func (c *Collector) OnFaultAttempt(seek, service int64) {
	c.FaultAttempts++
	c.SeekTime += seek
	c.ServiceTime += service
}

// OnFaultDropped attributes the latest drop to faults rather than load.
// Callers invoke it alongside OnDropped, so FaultDropped <= Dropped.
func (c *Collector) OnFaultDropped() {
	c.FaultDropped++
}

// OnDropped records a request whose deadline expired before service.
func (c *Collector) OnDropped(r *core.Request) {
	c.Dropped++
	c.recordMiss(r)
}

// OnLate records a request served past its deadline.
func (c *Collector) OnLate(r *core.Request) {
	c.Late++
	c.recordMiss(r)
}

func (c *Collector) recordMiss(r *core.Request) {
	for k := 0; k < c.dims && k < len(r.Priorities); k++ {
		c.MissesPerDimLevel[k][c.clampLevel(r.Priorities[k])]++
	}
}

// TotalInversions returns the inversion count summed over dimensions.
func (c *Collector) TotalInversions() uint64 {
	var t uint64
	for _, v := range c.InversionsPerDim {
		t += v
	}
	return t
}

// TotalMisses returns dropped plus late requests.
func (c *Collector) TotalMisses() uint64 { return c.Dropped + c.Late }

// LinearWeights returns the §6 cost weights for the collector's levels:
// decreasing linearly from ratio at level 0 (highest priority) to 1 at the
// lowest level. The paper uses ratio 11.
//
// The levels == 1 degenerate case returns [ratio], not [1]: a single level
// is the highest priority level, and pinning it to ratio keeps the cost of
// a miss continuous as a configuration collapses from 2 levels to 1
// (weights [ratio, 1] -> [ratio]) instead of snapping the only weight to
// the lowest-priority value. Absolute §6 costs for levels == 1 are scaled
// by ratio accordingly; comparisons across schedulers are unaffected.
func LinearWeights(levels int, ratio float64) []float64 {
	w := make([]float64, levels)
	for i := range w {
		if levels == 1 {
			w[i] = ratio
			continue
		}
		w[i] = 1 + (ratio-1)*float64(levels-1-i)/float64(levels-1)
	}
	return w
}

// WeightedLossCost returns the §6 cost function over dimension dim:
// sum_i w_i * m_i / r_i, with empty levels contributing zero.
func (c *Collector) WeightedLossCost(dim int, weights []float64) (float64, error) {
	if dim < 0 || dim >= c.dims {
		return 0, fmt.Errorf("metrics: dimension %d out of range [0,%d)", dim, c.dims)
	}
	if len(weights) != c.levels {
		return 0, fmt.Errorf("metrics: %d weights for %d levels", len(weights), c.levels)
	}
	var cost float64
	for l := 0; l < c.levels; l++ {
		r := c.RequestsPerDimLevel[dim][l]
		if r == 0 {
			continue
		}
		cost += weights[l] * float64(c.MissesPerDimLevel[dim][l]) / float64(r)
	}
	return cost, nil
}
