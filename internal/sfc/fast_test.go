package sfc

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// fastCases returns one small and one larger configuration per registered
// curve; the small one is verified exhaustively.
func fastCases(t testing.TB) []Curve {
	var cs []Curve
	for _, name := range Names() {
		dims := []int{2, 3}
		if name == "moore" {
			dims = []int{2}
		}
		for _, d := range dims {
			for _, side := range []uint32{4, 16} {
				c, err := New(name, d, side)
				if err != nil {
					t.Fatalf("New(%s, %d, %d): %v", name, d, side, err)
				}
				cs = append(cs, c)
			}
		}
	}
	// High-dimensional stress for the scratch-carrying curves.
	cs = append(cs, MustNew("hilbert", 12, 16), MustNew("peano", 8, 9))
	return cs
}

// eachCell enumerates all cells of c when the grid is small, and a random
// sample otherwise.
func eachCell(c Curve, rng *rand.Rand, visit func(Point)) {
	cells, _ := pow(uint64(c.Side()), c.Dims())
	p := make(Point, c.Dims())
	if cells <= 1<<14 {
		for n := uint64(0); n < cells; n++ {
			visit(p)
			for i := range p {
				p[i]++
				if p[i] < c.Side() {
					break
				}
				p[i] = 0
			}
		}
		return
	}
	for n := 0; n < 4096; n++ {
		for i := range p {
			p[i] = uint32(rng.Intn(int(c.Side())))
		}
		visit(p)
	}
}

func TestIndexFastMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range fastCases(t) {
		scratch := make([]uint32, c.ScratchLen())
		eachCell(c, rng, func(p Point) {
			want := c.Index(p)
			if got := c.IndexFast(p, scratch); got != want {
				t.Fatalf("%s(%dd,%d): IndexFast(%v) = %d, Index = %d", c.Name(), c.Dims(), c.Side(), p, got, want)
			}
			// nil scratch must agree too (allocating fallback).
			if got := c.IndexFast(p, nil); got != want {
				t.Fatalf("%s(%dd,%d): IndexFast(%v, nil) = %d, Index = %d", c.Name(), c.Dims(), c.Side(), p, got, want)
			}
		})
	}
}

func TestIndexFastNoAllocsWithScratch(t *testing.T) {
	for _, c := range fastCases(t) {
		c := c
		scratch := make([]uint32, c.ScratchLen())
		p := make(Point, c.Dims())
		for i := range p {
			p[i] = uint32(i) % c.Side()
		}
		allocs := testing.AllocsPerRun(100, func() {
			_ = c.IndexFast(p, scratch)
		})
		if allocs != 0 {
			t.Errorf("%s(%dd,%d): IndexFast allocates %v per op with scratch", c.Name(), c.Dims(), c.Side(), allocs)
		}
	}
}

func TestLUTMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range fastCases(t) {
		cells, _ := pow(uint64(c.Side()), c.Dims())
		l, err := NewLUT(c)
		if cells > MaxLUTCells {
			if err == nil {
				t.Errorf("%s(%dd,%d): NewLUT accepted %d cells", c.Name(), c.Dims(), c.Side(), cells)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s(%dd,%d): NewLUT: %v", c.Name(), c.Dims(), c.Side(), err)
		}
		if l.Name() != c.Name() || l.MaxIndex() != c.MaxIndex() || l.Bijective() != c.Bijective() {
			t.Errorf("%s: LUT metadata mismatch", c.Name())
		}
		eachCell(c, rng, func(p Point) {
			if got, want := l.Index(p), c.Index(p); got != want {
				t.Fatalf("%s(%dd,%d): LUT.Index(%v) = %d, Index = %d", c.Name(), c.Dims(), c.Side(), p, got, want)
			}
		})
	}
}

func TestAccelerate(t *testing.T) {
	small := MustNew("hilbert", 3, 16) // 4096 cells: accelerated
	if _, ok := Accelerate(small).(*LUT); !ok {
		t.Error("small grid not accelerated")
	}
	// Accelerating twice must not stack LUTs.
	a := Accelerate(small)
	if Accelerate(a) != a {
		t.Error("double acceleration re-wrapped the LUT")
	}
	big := MustNew("hilbert", 3, 256) // 2^24 cells: passthrough
	if Accelerate(big) != big {
		t.Error("oversized grid should pass through unchanged")
	}
}

// Two equal curves, constructed separately, accelerate onto one table,
// which equals a fresh NewLUT's; each LUT keeps its own curve for Name and
// Bijective.
func TestAccelerateSharesTables(t *testing.T) {
	for _, c := range lutCases(t) {
		twin, err := New(c.Name(), c.Dims(), c.Side())
		if err != nil {
			t.Fatal(err)
		}
		a, b := Accelerate(c).(*LUT), Accelerate(twin).(*LUT)
		if &a.tab[0] != &b.tab[0] {
			t.Errorf("%s(%dd,%d): equal curves got separate tables", c.Name(), c.Dims(), c.Side())
		}
		if a.base != c || b.base != twin {
			t.Errorf("%s(%dd,%d): a shared LUT does not wrap its caller's curve", c.Name(), c.Dims(), c.Side())
		}
		ref, err := NewLUT(c)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.tab, ref.tab) {
			t.Errorf("%s(%dd,%d): shared table differs from NewLUT's", c.Name(), c.Dims(), c.Side())
		}
	}
}

// reversed is a curve from outside the package that claims a registry
// curve's Name, Dims and Side but runs the other way.
type reversed struct{ Curve }

func (r reversed) Index(p Point) uint64 { return r.MaxIndex() - 1 - r.Curve.Index(p) }

func (r reversed) IndexFast(p Point, scratch []uint32) uint64 {
	return r.MaxIndex() - 1 - r.Curve.IndexFast(p, scratch)
}

// Only the package's own curve types share tables: a table keyed by name
// alone would hand reversed the Hilbert order.
func TestAccelerateKeepsForeignCurvesPrivate(t *testing.T) {
	hil := MustNew("hilbert", 3, 8)
	shared := Accelerate(hil).(*LUT)
	rev := reversed{hil}
	for i := 0; i < 2; i++ {
		l := Accelerate(rev).(*LUT)
		if &l.tab[0] == &shared.tab[0] {
			t.Fatal("a foreign curve named hilbert got the shared Hilbert table")
		}
		eachCell(rev, nil, func(p Point) {
			if got, want := l.Index(p), rev.Index(p); got != want {
				t.Fatalf("reversed LUT.Index(%v) = %d, want %d", p, got, want)
			}
		})
	}
}

// Goroutines that accelerate the same fresh grids at once all end up on
// one table per grid, equal to NewLUT's. The race soak runs it twenty
// times under -race.
func TestAccelerateConcurrently(t *testing.T) {
	cases := lutCases(t)
	tables.Lock()
	tables.m = map[lutKey][]uint64{} // every grid is built in this test
	tables.Unlock()
	const workers = 8
	got := make([][]*LUT, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range cases {
				twin, err := New(c.Name(), c.Dims(), c.Side())
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], Accelerate(twin).(*LUT))
			}
		}()
	}
	wg.Wait()
	for i, c := range cases {
		ref, err := NewLUT(c)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if l := got[w][i]; &l.tab[0] != &got[0][i].tab[0] || !slices.Equal(l.tab, ref.tab) {
				t.Errorf("%s(%dd,%d): worker %d's table is not the one shared table", c.Name(), c.Dims(), c.Side(), w)
			}
		}
	}
}

// lutCases is fastCases within MaxLUTCells: the curves Accelerate tables.
func lutCases(t testing.TB) []Curve {
	var cs []Curve
	for _, c := range fastCases(t) {
		if cells, _ := pow(uint64(c.Side()), c.Dims()); cells <= MaxLUTCells {
			cs = append(cs, c)
		}
	}
	return cs
}

func FuzzIndexFastEquivalence(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0))
	f.Add(uint16(13), uint16(200), uint16(31))
	hil := MustNew("hilbert", 3, 256)
	pea := MustNew("peano", 3, 27)
	moo := MustNew("moore", 2, 64)
	curves := []Curve{hil, pea, moo}
	scratch := make([]uint32, 8)
	f.Fuzz(func(t *testing.T, a, b, c uint16) {
		for _, cv := range curves {
			p := Point{uint32(a) % cv.Side(), uint32(b) % cv.Side(), uint32(c) % cv.Side()}[:cv.Dims()]
			if got, want := cv.IndexFast(p, scratch), cv.Index(p); got != want {
				t.Fatalf("%s: IndexFast(%v) = %d, Index = %d", cv.Name(), p, got, want)
			}
		}
	})
}

// TestNewLUTConstructionAllocs bounds what building a table costs: the LUT,
// its table, the odometer point and one scratch — not one working slice per
// cell, which made construction the fixed cost of every sweep cell.
// TestLUTMatchesIndex holds the tables equal to the checked Index.
func TestNewLUTConstructionAllocs(t *testing.T) {
	for _, c := range lutCases(t) {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := NewLUT(c); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s(%dd,%d): NewLUT allocates %v times, want <= 4", c.Name(), c.Dims(), c.Side(), allocs)
		}
	}
}
