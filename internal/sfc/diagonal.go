package sfc

import "fmt"

// Diagonal is the anti-diagonal zigzag order: cells are sorted by the sum
// of their coordinates, with alternating traversal direction within each
// diagonal (the Cantor zigzag). Section 5.2 of the paper identifies the
// balance factor f = 1 of the SFC2 stage with this curve.
//
// In two dimensions the order is an exact bijection with a computable
// inverse. For dims > 2 the curve defines a total order (sum of coordinates
// major, alternating lexicographic minor) but not a contiguous bijection,
// so Bijective() reports false.
type Diagonal struct{ grid }

// NewDiagonal returns a diagonal order over a (side)^dims grid.
func NewDiagonal(dims int, side uint32) (*Diagonal, error) {
	n, err := gridCells(dims, side)
	if err != nil {
		return nil, err
	}
	if dims != 2 {
		// Order values are sum*side^dims + lexicographic rank; the sum can
		// reach dims*(side-1), so bound the product.
		if _, ok := pow(uint64(side), dims+1); !ok {
			return nil, fmt.Errorf("sfc: diagonal order values for %d^%d grid overflow uint64", side, dims)
		}
		n *= uint64(dims)
	}
	return &Diagonal{grid{dims, side, n}}, nil
}

// Name implements Curve.
func (c *Diagonal) Name() string { return "diagonal" }

// Bijective implements Curve.
func (c *Diagonal) Bijective() bool { return c.dims == 2 }

// Index implements Curve.
func (c *Diagonal) Index(p Point) uint64 {
	checkPoint(p, c.dims, c.side)
	return c.IndexFast(p, nil)
}

// IndexFast implements Curve.
func (c *Diagonal) IndexFast(p Point, _ []uint32) uint64 {
	if c.dims == 2 {
		return c.index2(int64(p[0]), int64(p[1]))
	}
	var sum uint64
	for _, v := range p {
		sum += uint64(v)
	}
	var lex uint64
	for i := c.dims - 1; i >= 0; i-- {
		d := uint64(p[i])
		if sum&1 == 1 {
			d = uint64(c.side) - 1 - d
		}
		lex = lex*uint64(c.side) + d
	}
	cells, _ := pow(uint64(c.side), c.dims)
	return sum*cells + lex
}

// diagLen returns the number of cells on diagonal t of an n-by-n grid.
func diagLen(t, n int64) int64 {
	l := t + 1
	if m := 2*n - 1 - t; m < l {
		l = m
	}
	if l > n {
		l = n
	}
	return l
}

// index2 returns the exact 2-D zigzag diagonal index.
func (c *Diagonal) index2(x, y int64) uint64 {
	n := int64(c.side)
	t := x + y
	// Cells on diagonals before t.
	var before int64
	if t <= n {
		before = t * (t + 1) / 2
	} else {
		r := 2*n - 1 - t // diagonals from t (inclusive) to the corner
		before = n*n - r*(r+1)/2
	}
	// Rank within diagonal t: x runs over [max(0,t-n+1), min(t,n-1)].
	lo := int64(0)
	if t-n+1 > lo {
		lo = t - n + 1
	}
	rank := x - lo
	if t&1 == 1 { // odd diagonals run in decreasing x
		rank = diagLen(t, n) - 1 - rank
	}
	return uint64(before + rank)
}

// Point implements Inverter for the exact 2-D diagonal order.
// It panics for dims != 2, where the order is order-only.
func (c *Diagonal) Point(idx uint64, dst Point) Point {
	if c.dims != 2 {
		panic("sfc: diagonal inverse is only defined for 2 dimensions")
	}
	checkIndex(idx, c.max)
	dst = ensure(dst, 2)
	n := int64(c.side)
	rest := int64(idx)
	var t int64
	for {
		l := diagLen(t, n)
		if rest < l {
			break
		}
		rest -= l
		t++
	}
	lo := int64(0)
	if t-n+1 > lo {
		lo = t - n + 1
	}
	rank := rest
	if t&1 == 1 {
		rank = diagLen(t, n) - 1 - rank
	}
	x := lo + rank
	dst[0] = uint32(x)
	dst[1] = uint32(t - x)
	return dst
}
