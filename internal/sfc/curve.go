// Package sfc implements multi-dimensional space-filling curves.
//
// A space-filling curve visits every cell of a finite d-dimensional grid
// exactly once, defining a linear order over the grid. The Cascaded-SFC
// scheduler (Mokbel et al., ICDE 2004) uses these orders to reduce
// multi-parameter disk scheduling to one-dimensional priority-queue
// dispatch. The package provides the seven curves of the paper's Figure 1
// (Sweep, Scan, C-Scan, Peano, Gray, Hilbert, Spiral) plus the Diagonal and
// Z-order curves used by companion constructions and Moore, the closed
// Hilbert loop.
//
// A curve is its forward map: Index takes a point to its uint64 order
// value. Curves whose Index is a bijection onto [0, MaxIndex()) report
// Bijective() == true, and Walk visits their cells in curve order;
// generalizations that only define a total order (the d>2 Spiral and
// Diagonal) report false.
package sfc

import (
	"fmt"
	"math"
	"math/bits"
)

// Point is a grid cell: one coordinate per dimension. Coordinates must be
// in [0, Side()) of the curve they are used with.
type Point []uint32

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Curve is a linear order over the cells of a d-dimensional grid with
// Side() cells per dimension. Lower Index values come earlier in the order.
//
// By library convention, dimension Dims()-1 is the most significant
// dimension for the lexicographic curves (Sweep, Scan, C-Scan): those
// curves never invert the order of two points that differ in it.
type Curve interface {
	// Name returns the curve's registry name (e.g. "hilbert").
	Name() string
	// Dims returns the dimensionality of the grid.
	Dims() int
	// Side returns the number of cells per dimension of the natural grid.
	Side() uint32
	// MaxIndex returns an exclusive upper bound on Index results.
	MaxIndex() uint64
	// Bijective reports whether Index is a bijection onto [0, MaxIndex()).
	Bijective() bool
	// Index returns the position of p along the curve. It panics if p has
	// the wrong number of dimensions or an out-of-range coordinate.
	Index(p Point) uint64
	// IndexFast returns Index(p) without validating p. When scratch has at
	// least ScratchLen() elements it is used as working memory and the call
	// performs no heap allocation; a nil or short scratch falls back to
	// allocating. Behavior on a point with the wrong dimensionality or an
	// out-of-range coordinate is undefined.
	IndexFast(p Point, scratch []uint32) uint64
	// ScratchLen returns the scratch length IndexFast needs to run
	// allocation-free; 0 when it needs no working memory.
	ScratchLen() int
}

// grid is the shape of a curve's natural grid and the exclusive bound on
// its Index results, with the Curve accessors that read them.
type grid struct {
	dims int
	side uint32
	max  uint64
}

// Dims implements Curve.
func (g *grid) Dims() int { return g.dims }

// Side implements Curve.
func (g *grid) Side() uint32 { return g.side }

// MaxIndex implements Curve.
func (g *grid) MaxIndex() uint64 { return g.max }

// curve is every curve of the package: a grid, the registry name and
// bijectivity it reports, and the kernel that maps a cell to its index.
// digits is the kernel's digit count per axis (bits for the binary curves,
// base-3 digits for Peano) and scratch the working memory it needs.
type curve struct {
	grid
	name      string
	bijective bool
	scratch   int
	digits    int
	index     kernel
}

// kernel is a curve's index function. It may assume p is a valid cell of
// c's grid, and must work in scratch when it has enough room and allocate
// otherwise.
type kernel func(c *curve, p Point, scratch []uint32) uint64

// Name implements Curve.
func (c *curve) Name() string { return c.name }

// Bijective implements Curve.
func (c *curve) Bijective() bool { return c.bijective }

// ScratchLen implements Curve.
func (c *curve) ScratchLen() int { return c.scratch }

// Index implements Curve.
func (c *curve) Index(p Point) uint64 {
	checkPoint(p, c.dims, c.side)
	return c.index(c, p, nil)
}

// IndexFast implements Curve.
func (c *curve) IndexFast(p Point, scratch []uint32) uint64 {
	return c.index(c, p, scratch)
}

// scratchFor returns a scratch slice of at least n elements, reusing s
// when its capacity allows.
func scratchFor(s []uint32, n int) []uint32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint32, n)
}

// checkPoint panics unless p is a valid cell of a (dims, side) grid.
func checkPoint(p Point, dims int, side uint32) {
	if len(p) != dims {
		panic(fmt.Sprintf("sfc: point has %d dims, curve has %d", len(p), dims))
	}
	for i, c := range p {
		if c >= side {
			panic(fmt.Sprintf("sfc: coordinate %d = %d out of range [0,%d)", i, c, side))
		}
	}
}

// pow returns base**exp, reporting overflow of uint64.
func pow(base uint64, exp int) (uint64, bool) {
	v := uint64(1)
	for i := 0; i < exp; i++ {
		if base != 0 && v > math.MaxUint64/base {
			return 0, false
		}
		v *= base
	}
	return v, true
}

// gridCells validates (dims, side) and returns side**dims, or an error when
// the cell count does not fit in uint64.
func gridCells(dims int, side uint32) (uint64, error) {
	if dims < 1 {
		return 0, fmt.Errorf("sfc: dims must be >= 1, got %d", dims)
	}
	if side < 1 {
		return 0, fmt.Errorf("sfc: side must be >= 1, got %d", side)
	}
	n, ok := pow(uint64(side), dims)
	if !ok {
		return 0, fmt.Errorf("sfc: grid %d^%d overflows uint64", side, dims)
	}
	return n, nil
}

// log2Ceil returns the smallest b with 2^b >= v (v >= 1).
func log2Ceil(v uint32) int {
	return bits.Len32(v - 1)
}

// pow3Ceil returns the smallest m with 3^m >= v (v >= 1).
func pow3Ceil(v uint32) int {
	m := 0
	s := uint64(1)
	for s < uint64(v) {
		s *= 3
		m++
	}
	return m
}
