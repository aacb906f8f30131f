package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sfcsched/internal/core"
)

// inversionsByDefinition is §5.1 read literally: per tracked dimension, the
// queued requests whose level is strictly lower (priority strictly higher)
// than the dispatched request's. A dimension counts for a pair only when
// both vectors have it. OnDispatch must agree with it on every input.
func inversionsByDefinition(dims int, r *core.Request, queued []*core.Request) []uint64 {
	inv := make([]uint64, max(dims, 0))
	for _, w := range queued {
		for k := 0; k < dims; k++ {
			if k < len(w.Priorities) && k < len(r.Priorities) {
				if w.Priorities[k] < r.Priorities[k] {
					inv[k]++
				}
			}
		}
	}
	return inv
}

func eachOf(queued []*core.Request) func(func(*core.Request)) {
	return func(visit func(*core.Request)) {
		for _, w := range queued {
			visit(w)
		}
	}
}

func TestOnDispatchMatchesDefinition(t *testing.T) {
	req := func(p ...int) *core.Request { return &core.Request{Priorities: p} }
	self := req(3, 3, 3)
	cases := []struct {
		name   string
		dims   int
		r      *core.Request
		queued []*core.Request
		want   []uint64
	}{
		{"no dims", 0, req(1, 2), []*core.Request{req(0, 0)}, []uint64{}},
		{"empty queue", 3, req(4, 4, 4), nil, []uint64{0, 0, 0}},
		{"strict only", 2, req(4, 4), []*core.Request{req(4, 3), req(3, 4), req(5, 5)}, []uint64{1, 1}},
		{"negative and beyond levels", 2, req(0, 9), []*core.Request{req(-1, 8), req(-7, 100), req(0, 9)}, []uint64{2, 1}},
		{"dispatched shorter than dims", 3, req(5), []*core.Request{req(1, 1, 1), req(9, 0, 0)}, []uint64{1, 0, 0}},
		{"dispatched longer than dims", 2, req(5, 5, 5, 5), []*core.Request{req(1, 1, 1, 1)}, []uint64{1, 1}},
		{"queued shorter than dims", 3, req(5, 5, 5), []*core.Request{req(1), req(), req(1, 1)}, []uint64{2, 1, 0}},
		{"queued longer than dims", 1, req(5), []*core.Request{req(1, 1, 1), req(6, 0, 0)}, []uint64{1}},
		{"no priorities at all", 2, req(), []*core.Request{req(0, 0)}, []uint64{0, 0}},
		{"queue holds the dispatched request and its twin", 3, self, []*core.Request{self, req(3, 3, 3), req(2, 3, 4)}, []uint64{1, 0, 0}},
		{"twelve dims", 12, req(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
			[]*core.Request{req(0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1), req(0, 0, 0, 0, 0, 0)},
			[]uint64{2, 1, 2, 1, 2, 1, 1, 0, 1, 0, 1, 0}},
	}
	for _, tc := range cases {
		c := NewCollector(tc.dims, 8)
		c.OnDispatch(tc.r, eachOf(tc.queued))
		if !reflect.DeepEqual(c.InversionsPerDim, tc.want) {
			t.Errorf("%s: OnDispatch counted %v, want %v", tc.name, c.InversionsPerDim, tc.want)
		}
		if ref := inversionsByDefinition(tc.dims, tc.r, tc.queued); !reflect.DeepEqual(ref, tc.want) {
			t.Errorf("%s: the reference counts %v, the row says %v", tc.name, ref, tc.want)
		}
	}
}

// FuzzOnDispatchMatchesDefinition accumulates a few dispatches over ragged
// random vectors (levels from below 0 to beyond the collector's range) into
// one collector and holds the sum to the literal definition.
func FuzzOnDispatchMatchesDefinition(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(8), uint8(35))
	f.Add(int64(2), uint8(0), uint8(1), uint8(4))
	f.Add(int64(3), uint8(12), uint8(2), uint8(0))
	f.Add(int64(4), uint8(1), uint8(200), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, dims, levels, depth uint8) {
		d, l := int(dims%13), int(levels)
		rng := rand.New(rand.NewSource(seed))
		vec := func() *core.Request {
			p := make([]int, rng.Intn(d+4))
			for k := range p {
				p[k] = rng.Intn(l+5) - 2
			}
			return &core.Request{Priorities: p}
		}
		c := NewCollector(d, l)
		want := make([]uint64, d)
		for n := 0; n < 3; n++ {
			r := vec()
			queued := make([]*core.Request, int(depth))
			for i := range queued {
				queued[i] = vec()
			}
			if len(queued) > 1 {
				queued[rng.Intn(len(queued))] = r
			}
			c.OnDispatch(r, eachOf(queued))
			for k, v := range inversionsByDefinition(d, r, queued) {
				want[k] += v
			}
		}
		if !reflect.DeepEqual(c.InversionsPerDim, want) {
			t.Fatalf("dims %d: OnDispatch accumulated %v, the definition %v", d, c.InversionsPerDim, want)
		}
	})
}

func TestInversionCounting(t *testing.T) {
	c := NewCollector(2, 8)
	served := &core.Request{Priorities: []int{4, 4}}
	pending := []*core.Request{
		{Priorities: []int{1, 7}}, // higher in dim 0 only
		{Priorities: []int{7, 2}}, // higher in dim 1 only
		{Priorities: []int{0, 0}}, // higher in both
		{Priorities: []int{6, 6}}, // higher in neither
	}
	c.OnDispatch(served, func(visit func(*core.Request)) {
		for _, r := range pending {
			visit(r)
		}
	})
	if c.InversionsPerDim[0] != 2 || c.InversionsPerDim[1] != 2 {
		t.Errorf("per-dim inversions = %v, want [2 2]", c.InversionsPerDim)
	}
	if c.TotalInversions() != 4 {
		t.Errorf("total = %d, want 4", c.TotalInversions())
	}
}

func TestEqualLevelsAreNotInversions(t *testing.T) {
	c := NewCollector(1, 8)
	served := &core.Request{Priorities: []int{3}}
	c.OnDispatch(served, func(visit func(*core.Request)) {
		visit(&core.Request{Priorities: []int{3}})
	})
	if c.TotalInversions() != 0 {
		t.Errorf("equal priority counted as inversion")
	}
}

func TestMissAccounting(t *testing.T) {
	c := NewCollector(1, 4)
	for l := 0; l < 4; l++ {
		r := &core.Request{Priorities: []int{l}}
		c.OnArrival(r)
		if l%2 == 0 {
			c.OnDropped(r)
		}
	}
	r := &core.Request{Priorities: []int{3}}
	c.OnArrival(r)
	c.OnLate(r)
	if c.Dropped != 2 || c.Late != 1 || c.TotalMisses() != 3 {
		t.Errorf("dropped=%d late=%d", c.Dropped, c.Late)
	}
	if c.MissesPerDimLevel[0][0] != 1 || c.MissesPerDimLevel[0][2] != 1 || c.MissesPerDimLevel[0][3] != 1 {
		t.Errorf("per-level misses = %v", c.MissesPerDimLevel[0])
	}
}

func TestClampOutOfRangeLevels(t *testing.T) {
	c := NewCollector(1, 4)
	c.OnArrival(&core.Request{Priorities: []int{99}})
	c.OnArrival(&core.Request{Priorities: []int{-1}})
	if c.RequestsPerDimLevel[0][3] != 1 || c.RequestsPerDimLevel[0][0] != 1 {
		t.Errorf("clamping failed: %v", c.RequestsPerDimLevel[0])
	}
}

func TestLinearWeights(t *testing.T) {
	w := LinearWeights(8, 11)
	if w[0] != 11 || w[7] != 1 {
		t.Errorf("endpoints = %v, %v, want 11, 1", w[0], w[7])
	}
	for i := 1; i < 8; i++ {
		if w[i] >= w[i-1] {
			t.Errorf("weights not decreasing at %d: %v", i, w)
		}
	}
	if one := LinearWeights(1, 11); one[0] != 11 {
		t.Errorf("single level weight = %v", one[0])
	}
}

// TestLinearWeightsEdgeCases pins the degenerate shapes. The levels == 1
// decision (weight is ratio, not 1) is deliberate: a single level is the
// highest priority level, and the weight stays continuous with the
// two-level case [ratio, 1] — see the LinearWeights doc comment.
func TestLinearWeightsEdgeCases(t *testing.T) {
	if w := LinearWeights(0, 11); len(w) != 0 {
		t.Errorf("0 levels gave %v, want empty", w)
	}
	if w := LinearWeights(1, 11); len(w) != 1 || w[0] != 11 {
		t.Errorf("1 level gave %v, want [11]", w)
	}
	if w := LinearWeights(2, 11); w[0] != 11 || w[1] != 1 {
		t.Errorf("2 levels gave %v, want [11 1]", w)
	}
	// ratio 1 flattens every level to weight 1 (the unweighted §6 cost).
	for _, w := range LinearWeights(5, 1) {
		if w != 1 {
			t.Errorf("ratio 1 gave non-unit weight %v", w)
		}
	}
	// The interior is exactly linear, not merely monotonic.
	w := LinearWeights(3, 11)
	if w[1] != 6 {
		t.Errorf("midpoint of [11,1] = %v, want 6", w[1])
	}
}

// TestWeightedLossCostErrors covers every rejection path.
func TestWeightedLossCostErrors(t *testing.T) {
	c := NewCollector(2, 3)
	ok := LinearWeights(3, 11)
	if _, err := c.WeightedLossCost(-1, ok); err == nil {
		t.Error("negative dimension accepted")
	}
	if _, err := c.WeightedLossCost(2, ok); err == nil {
		t.Error("out-of-range dimension accepted")
	}
	if _, err := c.WeightedLossCost(0, nil); err == nil {
		t.Error("nil weights accepted")
	}
	if _, err := c.WeightedLossCost(0, LinearWeights(4, 11)); err == nil {
		t.Error("wrong weight count accepted")
	}
	if got, err := c.WeightedLossCost(0, ok); err != nil || got != 0 {
		t.Errorf("empty collector cost = (%v, %v), want (0, nil)", got, err)
	}
}

func TestWeightedLossCost(t *testing.T) {
	c := NewCollector(1, 2)
	hi := &core.Request{Priorities: []int{0}}
	lo := &core.Request{Priorities: []int{1}}
	for i := 0; i < 10; i++ {
		c.OnArrival(hi)
		c.OnArrival(lo)
	}
	c.OnDropped(hi) // 1/10 high misses
	c.OnDropped(lo)
	c.OnDropped(lo) // 2/10 low misses
	w := []float64{11, 1}
	got, err := c.WeightedLossCost(0, w)
	if err != nil {
		t.Fatal(err)
	}
	want := 11*0.1 + 1*0.2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("cost = %v, want %v", got, want)
	}
	if _, err := c.WeightedLossCost(5, w); err == nil {
		t.Error("expected error for bad dimension")
	}
	if _, err := c.WeightedLossCost(0, []float64{1}); err == nil {
		t.Error("expected error for weight length mismatch")
	}
}

func TestServedAccounting(t *testing.T) {
	c := NewCollector(0, 1)
	r := &core.Request{Arrival: 100}
	c.OnServed(r, 500, 2000, 600)
	if c.Served != 1 || c.SeekTime != 500 || c.ServiceTime != 2000 {
		t.Errorf("served accounting wrong: %+v", c)
	}
}

func TestZeroDimCollectorSafe(t *testing.T) {
	c := NewCollector(0, 0)
	r := &core.Request{}
	c.OnArrival(r)
	c.OnDispatch(r, func(func(*core.Request)) {})
	c.OnDropped(r)
	if c.TotalInversions() != 0 || c.Arrived != 1 || c.Dropped != 1 {
		t.Error("zero-dim collector misbehaved")
	}
}
