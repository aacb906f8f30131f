package sfc

import (
	"fmt"
	"sync"
)

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
// dropped in anywhere the base curve is accepted.
//
// The table is read-only once built. LUTs from Accelerate share it with
// every other LUT over the same grid, so nothing may write it, and a LUT
// is safe for concurrent use.
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
	eachIndex(c, cells, func(rank, idx uint64) { l.tab[rank] = idx })
	return l, nil
}

// ScratchLen implements Curve: a table lookup needs no working memory.
func (l *LUT) ScratchLen() int { return 0 }

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
//
// The table of one of this package's curves is a pure function of the
// curve's name, Dims and Side, so the first Accelerate of a grid builds it
// with NewLUT and every later one in the process wraps c around that same
// table: a fresh scheduler pays one map lookup, not one IndexFast per cell.
// Tables are never evicted. Any other Curve implementation gets a private
// table, since its Name may equal a registry curve's while its order
// differs.
func Accelerate(c Curve) Curve {
	if _, ok := c.(*LUT); ok {
		return c
	}
	key, shared := tableKey(c)
	if shared {
		// One lock over lookup and build: the first caller of a grid
		// builds its table, and callers that race it wait for that table.
		// c is one of this package's curves, so no caller code runs
		// under the lock.
		tables.Lock()
		defer tables.Unlock()
		if tab, ok := tables.m[key]; ok {
			return &LUT{grid{c.Dims(), c.Side(), c.MaxIndex()}, c, tab}
		}
	}
	l, err := NewLUT(c)
	if err != nil {
		return c
	}
	if shared {
		tables.m[key] = l.tab
	}
	return l
}

// lutKey names a shared table: the curve's registry name stands for its
// kernel, which tableKey has checked is this package's.
type lutKey struct {
	name string
	dims int
	side uint32
}

// tables holds every shared table built in this process.
var tables = struct {
	sync.Mutex
	m map[lutKey][]uint64
}{m: map[lutKey][]uint64{}}

// tableKey reports the shared-table key of c, and false unless c is one of
// the package's own curves, whose order its name, Dims and Side fix.
func tableKey(c Curve) (lutKey, bool) {
	cv, ok := c.(*curve)
	if !ok {
		return lutKey{}, false
	}
	return lutKey{cv.name, cv.dims, cv.side}, true
}
