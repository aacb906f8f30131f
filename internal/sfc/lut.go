package sfc

import "fmt"

// MaxLUTCells bounds the grids NewLUT accepts: 2^16 cells keep the table
// inside 512 KiB, small enough to live in L2 for the hot 2-D/3-D SFC1
// configurations (e.g. 3 dims x 4 bits = 4096 cells).
const MaxLUTCells = 1 << 16

// LUT wraps a curve with a precomputed cell -> index table, turning Index
// into a row-major rank computation plus one table load. It is built once
// at construction (one IndexFast call per grid cell) and is
// worthwhile for curves whose Index walks bit or digit levels (Hilbert,
// Peano, Gray) on grids small enough for MaxLUTCells.
//
// LUT implements Curve with the base curve's name and bounds, so it can be
// dropped in anywhere the base curve is accepted. It intentionally does NOT
// implement Inverter even when the base curve does: callers that need the
// inverse should keep a reference to the base curve.
type LUT struct {
	grid
	base Curve
	tab  []uint64
}

// NewLUT precomputes the index table of c. It fails when the grid has more
// than MaxLUTCells cells.
func NewLUT(c Curve) (*LUT, error) {
	cells, err := gridCells(c.Dims(), c.Side())
	if err != nil {
		return nil, err
	}
	if cells > MaxLUTCells {
		return nil, fmt.Errorf("sfc: %d-cell grid exceeds the %d-cell LUT limit", cells, MaxLUTCells)
	}
	l := &LUT{grid{c.Dims(), c.Side(), c.MaxIndex()}, c, make([]uint64, cells)}
	// Enumerate cells in row-major (rank) order with an odometer. Its
	// points are valid by construction, so the unchecked IndexFast over one
	// scratch serves: the checked Index allocates working memory per call.
	p := make(Point, l.dims)
	scratch := make([]uint32, c.ScratchLen())
	for rank := uint64(0); rank < cells; rank++ {
		l.tab[rank] = c.IndexFast(p, scratch)
		for i := 0; i < l.dims; i++ {
			p[i]++
			if p[i] < l.side {
				break
			}
			p[i] = 0
		}
	}
	return l, nil
}

// Name implements Curve. It reports the base curve's name so experiment
// labels stay stable when a LUT is swapped in.
func (l *LUT) Name() string { return l.base.Name() }

// Bijective implements Curve.
func (l *LUT) Bijective() bool { return l.base.Bijective() }

// Index implements Curve.
func (l *LUT) Index(p Point) uint64 {
	checkPoint(p, l.dims, l.side)
	return l.IndexFast(p, nil)
}

// IndexFast implements Curve.
func (l *LUT) IndexFast(p Point, _ []uint32) uint64 {
	rank := uint64(p[l.dims-1])
	for i := l.dims - 2; i >= 0; i-- {
		rank = rank*uint64(l.side) + uint64(p[i])
	}
	return l.tab[rank]
}

// Accelerate returns a LUT over c when its grid fits MaxLUTCells, and c
// itself otherwise. Already-accelerated curves pass through unchanged.
func Accelerate(c Curve) Curve {
	if _, ok := c.(*LUT); ok {
		return c
	}
	if l, err := NewLUT(c); err == nil {
		return l
	}
	return c
}
