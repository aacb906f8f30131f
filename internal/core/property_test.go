package core

import (
	"math"
	"testing"
	"testing/quick"

	"sfcsched/internal/sfc"
	"sfcsched/internal/stats"
)

// TestDispatcherConservation drives every dispatcher mode with random
// add/next interleavings and checks that no request is lost, duplicated,
// or dispatched out of thin air.
func TestDispatcherConservation(t *testing.T) {
	modes := []DispatcherConfig{
		{Mode: NonPreemptive},
		{Mode: FullyPreemptive},
		{Mode: ConditionallyPreemptive, Window: 100},
		{Mode: ConditionallyPreemptive, Window: 100, SP: true},
		{Mode: ConditionallyPreemptive, Window: 100, SP: true, ER: true, Expansion: 2},
	}
	for _, cfg := range modes {
		rng := stats.NewRNG(99)
		d := MustDispatcher(cfg)
		added := map[uint64]bool{}
		dispatched := map[uint64]bool{}
		var nextID uint64
		for step := 0; step < 5000; step++ {
			if rng.Float64() < 0.55 {
				nextID++
				added[nextID] = true
				d.Add(&Request{ID: nextID}, rng.Uint64n(1<<20))
			} else if r := d.Next(); r != nil {
				if dispatched[r.ID] {
					t.Fatalf("%v: request %d dispatched twice", cfg.Mode, r.ID)
				}
				if !added[r.ID] {
					t.Fatalf("%v: request %d dispatched but never added", cfg.Mode, r.ID)
				}
				dispatched[r.ID] = true
			}
			if want := len(added) - len(dispatched); d.Len() != want {
				t.Fatalf("%v: Len = %d, want %d", cfg.Mode, d.Len(), want)
			}
		}
		for r := d.Next(); r != nil; r = d.Next() {
			if dispatched[r.ID] {
				t.Fatalf("%v: request %d dispatched twice in drain", cfg.Mode, r.ID)
			}
			dispatched[r.ID] = true
		}
		if len(dispatched) != len(added) {
			t.Errorf("%v: %d added, %d dispatched", cfg.Mode, len(added), len(dispatched))
		}
	}
}

// TestFullyPreemptiveAlwaysMin: in fully-preemptive mode the dispatched
// request always carries the minimum value among those pending.
func TestFullyPreemptiveAlwaysMin(t *testing.T) {
	rng := stats.NewRNG(5)
	d := MustDispatcher(DispatcherConfig{Mode: FullyPreemptive})
	vals := map[uint64]uint64{}
	var id uint64
	for step := 0; step < 3000; step++ {
		if rng.Float64() < 0.6 || d.Len() == 0 {
			id++
			v := rng.Uint64n(1 << 16)
			vals[id] = v
			d.Add(&Request{ID: id}, v)
			continue
		}
		r := d.Next()
		min := uint64(math.MaxUint64)
		for _, v := range vals {
			if v < min {
				min = v
			}
		}
		if vals[r.ID] != min {
			t.Fatalf("dispatched value %d, pending min %d", vals[r.ID], min)
		}
		delete(vals, r.ID)
	}
}

// TestConditionalNeverBlocksForever: whatever the window, a drained input
// stream always leads to full dispatch (no request stuck between queues).
func TestConditionalNeverBlocksForever(t *testing.T) {
	f := func(windows uint16, n uint8) bool {
		d := MustDispatcher(DispatcherConfig{
			Mode: ConditionallyPreemptive, Window: uint64(windows), SP: true,
		})
		rng := stats.NewRNG(uint64(windows)*7919 + uint64(n))
		count := int(n)%64 + 1
		for i := 0; i < count; i++ {
			d.Add(&Request{ID: uint64(i)}, rng.Uint64n(1<<12))
			if rng.Float64() < 0.3 {
				d.Next()
			}
		}
		drained := 0
		for r := d.Next(); r != nil; r = d.Next() {
			drained++
			if drained > count {
				return false
			}
		}
		return d.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestERWindowNeverBelowBase: ER may expand the window but a reset always
// returns exactly to the configured base.
func TestERWindowNeverBelowBase(t *testing.T) {
	rng := stats.NewRNG(31)
	d := MustDispatcher(DispatcherConfig{
		Mode: ConditionallyPreemptive, Window: 50, ER: true, Expansion: 2,
	})
	var id uint64
	for step := 0; step < 4000; step++ {
		if rng.Float64() < 0.6 {
			id++
			d.Add(&Request{ID: id}, rng.Uint64n(1<<14))
		} else {
			d.Next()
		}
		if d.Window() < 50 {
			t.Fatalf("window %d fell below base 50", d.Window())
		}
	}
}

// TestEncapsulatorDeterministic: equal inputs give equal values, for every
// stage combination.
func TestEncapsulatorDeterministic(t *testing.T) {
	cfgs := []EncapsulatorConfig{
		{Levels: 8},
		{Curve1: sfc.MustNew("hilbert", 3, 8), Levels: 8},
		{Curve1: sfc.MustNew("peano", 3, 9), Levels: 8, UseDeadline: true, F: 1,
			DeadlineHorizon: 1_000_000, DeadlineSpan: 500_000},
		{Levels: 8, UseDeadline: true, F: 2, DeadlineHorizon: 1_000_000,
			UseCylinder: true, R: 3, Cylinders: 3832},
	}
	for _, cfg := range cfgs {
		e := MustEncapsulator(cfg)
		f := func(p1, p2, p3 uint8, dl uint32, cyl uint16, now uint32, head uint16) bool {
			r := &Request{
				Priorities: []int{int(p1 % 8), int(p2 % 8), int(p3 % 8)},
				Deadline:   int64(dl),
				Cylinder:   int(cyl) % 3832,
			}
			a := e.ValueAt(r, int64(now), int(head)%3832, 17)
			b := e.ValueAt(r, int64(now), int(head)%3832, 17)
			return a == b && a < e.MaxValue()+1<<40
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

// TestStage1MonotoneForSweep: with a sweep SFC1, improving any single
// priority level (others fixed) never worsens the characterization value.
func TestStage1MonotoneForSweep(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Curve1: sfc.MustNew("sweep", 3, 8), Levels: 8,
	})
	f := func(a, b, c uint8, dim uint8) bool {
		p := []int{int(a % 8), int(b % 8), int(c % 8)}
		k := int(dim) % 3
		if p[k] == 0 {
			return true
		}
		better := append([]int(nil), p...)
		better[k]--
		return e.ValueAt(&Request{Priorities: better}, 0, 0, 0) < e.ValueAt(&Request{Priorities: p}, 0, 0, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStage2MonotoneInDeadline: with priorities fixed, an earlier deadline
// never yields a later dispatch position (absolute mode, any f > 0).
func TestStage2MonotoneInDeadline(t *testing.T) {
	for _, fv := range []float64{0.5, 1, 4, math.Inf(1)} {
		e := MustEncapsulator(EncapsulatorConfig{
			Levels: 8, UseDeadline: true, F: fv,
			DeadlineHorizon: 1 << 30, DeadlineSpan: 700_000,
		})
		f := func(lvl uint8, d1, d2 uint32) bool {
			if d1 == d2 {
				return true
			}
			lo, hi := int64(d1), int64(d2)
			if lo > hi {
				lo, hi = hi, lo
			}
			a := e.ValueAt(&Request{Priorities: []int{int(lvl % 8)}, Deadline: lo + 1}, 0, 0, 0)
			b := e.ValueAt(&Request{Priorities: []int{int(lvl % 8)}, Deadline: hi + 1}, 0, 0, 0)
			return a <= b
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("f=%v: %v", fv, err)
		}
	}
}

// TestSchedulerSweepTimelineMonotone: the scan-progress anchor never
// decreases, whatever head positions the simulator reports.
func TestSchedulerSweepTimelineMonotone(t *testing.T) {
	s := MustScheduler("x", EncapsulatorConfig{
		Levels: 4, UseCylinder: true, R: 2, Cylinders: 1000,
	}, DispatcherConfig{Mode: FullyPreemptive}, 0)
	rng := stats.NewRNG(8)
	prev := uint64(0)
	for i := 0; i < 2000; i++ {
		head := rng.Intn(1000)
		if rng.Float64() < 0.5 {
			s.Add(&Request{ID: uint64(i), Cylinder: rng.Intn(1000)}, int64(i), head)
		} else {
			s.Next(int64(i), head)
		}
		if s.progress < prev {
			t.Fatalf("progress went backward: %d -> %d", prev, s.progress)
		}
		prev = s.progress
	}
}

// TestValueIgnoresProgressWithoutCylinderStage: configurations without
// SFC3 must not depend on the sweep timeline.
func TestValueIgnoresProgressWithoutCylinderStage(t *testing.T) {
	e := MustEncapsulator(EncapsulatorConfig{
		Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 1_000_000,
	})
	r := &Request{Priorities: []int{3}, Deadline: 500_000}
	if e.ValueAt(r, 0, 0, 0) != e.ValueAt(r, 0, 0, 1<<40) {
		t.Error("progress leaked into a cascade without SFC3")
	}
}
