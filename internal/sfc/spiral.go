package sfc

import "fmt"

// The center-out spiral order. In two dimensions it is an exact
// space-filling curve over an odd-sided grid: ring s (Chebyshev distance s
// from the center) occupies indices [(2s-1)^2, (2s+1)^2), traversed
// counter-clockwise starting just above the ring's bottom-right corner, so
// consecutive cells are always grid neighbors.
//
// For dims > 2 the spiral generalizes to an L-infinity shell order: cells
// are sorted by Chebyshev distance from the grid center, ties broken
// lexicographically. That generalization defines a total order but not a
// bijection onto a contiguous index range, so Bijective() reports false.

// newSpiral returns a spiral order over a (side)^dims grid. For dims == 2
// the side is rounded up to the next odd number so the spiral has a center
// cell; callers should treat Side() as authoritative.
func newSpiral(dims int, side uint32) (*curve, error) {
	if dims == 2 && side%2 == 0 {
		side++
	}
	n, err := gridCells(dims, side)
	if err != nil {
		return nil, err
	}
	if dims == 2 {
		return &curve{grid: grid{dims, side, n}, name: "spiral", bijective: true, index: spiral2}, nil
	}
	// Order values are shell*side^dims + lexicographic rank: not
	// contiguous, so MaxIndex bounds them instead.
	if _, ok := pow(uint64(side), dims+1); !ok {
		return nil, fmt.Errorf("sfc: spiral order values for %d^%d grid overflow uint64", side, dims)
	}
	return &curve{grid: grid{dims, side, n * uint64(side)}, name: "spiral", index: spiralShell}, nil
}

// spiralShell is the order-only kernel: L-infinity shell from the center,
// ties lexicographic.
func spiralShell(c *curve, p Point, _ []uint32) uint64 {
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

// spiral2 is the exact 2-D spiral kernel.
func spiral2(c *curve, p Point, _ []uint32) uint64 {
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
