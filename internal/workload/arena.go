package workload

import (
	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// Arena is a recyclable backing store for generated traces: one
// contiguous request slab, one shared priority-level backing and the
// pointer view handed to the simulator. Generating a 100k-request trace
// through an arena costs a handful of slab (re)allocations instead of one
// per request, and regenerating into the same arena costs none once the
// slabs have grown to size.
//
// The trace returned by a GenerateArena call is a view into the arena:
// the next generation through the same arena overwrites it. Simulations
// never mutate requests, so one generation can back any number of
// sequential runs; parallel sweep cells each use their own arena (see
// internal/runner). The zero value is ready to use.
type Arena struct {
	reqs []core.Request
	prio []int
	ptrs []*core.Request
}

// requests returns the request slab resized to n and zeroed.
func (a *Arena) requests(n int) []core.Request {
	if cap(a.reqs) < n {
		a.reqs = make([]core.Request, n)
	} else {
		a.reqs = a.reqs[:n]
		clear(a.reqs)
	}
	return a.reqs
}

// priorities returns the priority backing resized to n. Slots are not
// zeroed; callers overwrite every one.
func (a *Arena) priorities(n int) []int {
	if cap(a.prio) < n {
		a.prio = make([]int, n)
	} else {
		a.prio = a.prio[:n]
	}
	return a.prio
}

// pointers returns the pointer view resized to n. Slots are not zeroed;
// callers overwrite every one.
func (a *Arena) pointers(n int) []*core.Request {
	if cap(a.ptrs) < n {
		a.ptrs = make([]*core.Request, n)
	} else {
		a.ptrs = a.ptrs[:n]
	}
	return a.ptrs
}

// GenerateArena builds the trace into a's slabs; a nil arena means a
// fresh one.
func (w Open) GenerateArena(a *Arena) ([]*core.Request, error) {
	if a == nil {
		a = new(Arena)
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	var rng stats.RNG
	rng.Seed(w.Seed)
	var zipf *stats.Zipf
	if w.Dist == Zipf {
		zipf = stats.NewZipf(rng.Split(), w.Levels, 1.0)
	}
	tzipf := w.tenantZipf()
	reqs := a.requests(w.Count)
	prio := a.priorities(w.Count * w.Dims)
	ptrs := a.pointers(w.Count)
	now := int64(0)
	for i := range reqs {
		r := &reqs[i]
		if w.Dims > 0 {
			// Three-index views pin each vector's capacity, so an append
			// by a caller can never bleed into its neighbor's levels.
			r.Priorities = prio[i*w.Dims : (i+1)*w.Dims : (i+1)*w.Dims]
		}
		w.genOne(i, &now, &rng, zipf, tzipf, r)
		ptrs[i] = r
	}
	return ptrs, nil
}

// MustGenerateArena is GenerateArena for static configurations.
func (w Open) MustGenerateArena(a *Arena) []*core.Request {
	reqs, err := w.GenerateArena(a)
	if err != nil {
		panic(err)
	}
	return reqs
}

// GenerateArena builds the trace, sorted by arrival time, into a's slabs;
// a nil arena means a fresh one.
func (s Streams) GenerateArena(a *Arena) ([]*core.Request, error) {
	if a == nil {
		a = new(Arena)
	}
	burst, err := s.validate()
	if err != nil {
		return nil, err
	}
	a.reqs = a.reqs[:0]
	a.prio = a.prio[:0]
	s.generate(burst, func(r core.Request, level int) {
		a.reqs = append(a.reqs, r)
		a.prio = append(a.prio, level)
	})
	// Views are taken only now: during the append loop both slabs may
	// relocate as they grow, so mid-loop pointers or subslices into them
	// would dangle.
	ptrs := a.pointers(len(a.reqs))
	for i := range a.reqs {
		a.reqs[i].Priorities = a.prio[i : i+1 : i+1]
		ptrs[i] = &a.reqs[i]
	}
	sortAndRenumber(ptrs)
	return ptrs, nil
}

// MustGenerateArena is GenerateArena for static configurations.
func (s Streams) MustGenerateArena(a *Arena) []*core.Request {
	reqs, err := s.GenerateArena(a)
	if err != nil {
		panic(err)
	}
	return reqs
}
