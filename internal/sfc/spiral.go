package sfc

import (
	"fmt"
	"math"
)

// Spiral is the center-out spiral order. In two dimensions it is an exact
// space-filling curve over an odd-sided grid: ring s (Chebyshev distance s
// from the center) occupies indices [(2s-1)^2, (2s+1)^2), traversed
// counter-clockwise starting just above the ring's bottom-right corner, so
// consecutive cells are always grid neighbors.
//
// For dims > 2 the spiral generalizes to an L-infinity shell order: cells
// are sorted by Chebyshev distance from the grid center, ties broken
// lexicographically. That generalization defines a total order but not a
// bijection onto a contiguous index range, so Bijective() reports false and
// the curve does not implement Inverter.
type Spiral struct {
	grid // side is odd for dims == 2
}

// NewSpiral returns a spiral order over a (side)^dims grid. For dims == 2
// the side is rounded up to the next odd number so the spiral has a center
// cell; callers should treat Side() as authoritative.
func NewSpiral(dims int, side uint32) (*Spiral, error) {
	if dims == 2 && side%2 == 0 {
		side++
	}
	n, err := gridCells(dims, side)
	if err != nil {
		return nil, err
	}
	if dims != 2 {
		// Order values are shell*side^dims + lexicographic rank: not
		// contiguous, so MaxIndex bounds them instead.
		if _, ok := pow(uint64(side), dims+1); !ok {
			return nil, fmt.Errorf("sfc: spiral order values for %d^%d grid overflow uint64", side, dims)
		}
		n *= uint64(side)
	}
	return &Spiral{grid{dims, side, n}}, nil
}

// Name implements Curve.
func (c *Spiral) Name() string { return "spiral" }

// Bijective implements Curve.
func (c *Spiral) Bijective() bool { return c.dims == 2 }

// Index implements Curve.
func (c *Spiral) Index(p Point) uint64 {
	checkPoint(p, c.dims, c.side)
	return c.IndexFast(p, nil)
}

// IndexFast implements Curve.
func (c *Spiral) IndexFast(p Point, _ []uint32) uint64 {
	if c.dims == 2 {
		return c.index2(p)
	}
	// L-infinity shell from the center, ties lexicographic.
	center := int64(c.side-1) / 2
	var shell int64
	for _, v := range p {
		d := int64(v) - center
		if d < 0 {
			d = -d
		}
		if d > shell {
			shell = d
		}
	}
	var lex uint64
	for i := c.dims - 1; i >= 0; i-- {
		lex = lex*uint64(c.side) + uint64(p[i])
	}
	cells, _ := pow(uint64(c.side), c.dims)
	return uint64(shell)*cells + lex
}

// index2 returns the exact 2-D spiral index.
func (c *Spiral) index2(p Point) uint64 {
	center := int64(c.side-1) / 2
	dx := int64(p[0]) - center
	dy := int64(p[1]) - center
	s := dx
	if s < 0 {
		s = -s
	}
	if dy > s {
		s = dy
	}
	if -dy > s {
		s = -dy
	}
	if s == 0 {
		return 0
	}
	base := uint64(2*s-1) * uint64(2*s-1)
	var rank int64
	switch {
	case dx == s && dy > -s: // right edge, moving up
		rank = dy + s - 1
	case dy == s && dx < s: // top edge, moving left
		rank = 2*s + (s - 1 - dx)
	case dx == -s && dy < s: // left edge, moving down
		rank = 4*s + (s - 1 - dy)
	default: // bottom edge, moving right
		rank = 6*s + (dx + s - 1)
	}
	return base + uint64(rank)
}

// Point implements Inverter for the exact 2-D spiral.
// It panics for dims != 2, where the spiral is order-only.
func (c *Spiral) Point(idx uint64, dst Point) Point {
	if c.dims != 2 {
		panic("sfc: spiral inverse is only defined for 2 dimensions")
	}
	checkIndex(idx, c.max)
	dst = ensure(dst, 2)
	center := int64(c.side-1) / 2
	if idx == 0 {
		dst[0], dst[1] = uint32(center), uint32(center)
		return dst
	}
	// Ring s covers [(2s-1)^2, (2s+1)^2): s = ceil((sqrt(idx) + 1) / 2).
	s := int64(math.Sqrt(float64(idx))+1) / 2
	for uint64(2*s+1)*uint64(2*s+1) <= idx {
		s++
	}
	for uint64(2*s-1)*uint64(2*s-1) > idx {
		s--
	}
	rank := int64(idx - uint64(2*s-1)*uint64(2*s-1))
	var dx, dy int64
	switch {
	case rank < 2*s: // right edge
		dx, dy = s, rank-s+1
	case rank < 4*s: // top edge
		dx, dy = s-1-(rank-2*s), s
	case rank < 6*s: // left edge
		dx, dy = -s, s-1-(rank-4*s)
	default: // bottom edge
		dx, dy = rank-6*s-s+1, -s
	}
	dst[0] = uint32(dx + center)
	dst[1] = uint32(dy + center)
	return dst
}
