package sfc

import "fmt"

// Peano is the d-dimensional Peano curve over a (3^order)^dims grid,
// built from Peano's original base-3 digit construction: the index digits
// are the coordinate digits taken level by level (dimension Dims()-1 first
// within each level), with a digit complemented (t -> 2-t) whenever the sum
// of the index digits already emitted for the *other* dimensions is odd.
// The resulting curve is continuous: consecutive cells are grid neighbors,
// which the adjacency property tests verify.
type Peano struct {
	grid
	order int      // digits per dimension
	p3    []uint32 // p3[k] = 3^k, k in [0, order)
}

// NewPeano returns a Peano curve over a (3^order)^dims grid. The total cell
// count 3^(order*dims) must fit in uint64.
func NewPeano(dims, order int) (*Peano, error) {
	if dims < 1 {
		return nil, fmt.Errorf("sfc: dims must be >= 1, got %d", dims)
	}
	if order < 1 {
		return nil, fmt.Errorf("sfc: order must be >= 1, got %d", order)
	}
	side, ok := pow(3, order)
	if !ok || side > 1<<32-1 {
		return nil, fmt.Errorf("sfc: side 3^%d too large", order)
	}
	max, ok := pow(3, order*dims)
	if !ok {
		return nil, fmt.Errorf("sfc: grid 3^(%d*%d) overflows uint64", order, dims)
	}
	p3 := make([]uint32, order)
	p3[0] = 1
	for k := 1; k < order; k++ {
		p3[k] = p3[k-1] * 3
	}
	return &Peano{grid{dims, uint32(side), max}, order, p3}, nil
}

// Name implements Curve.
func (c *Peano) Name() string { return "peano" }

// Bijective implements Curve.
func (c *Peano) Bijective() bool { return true }

// Index implements Curve.
func (c *Peano) Index(p Point) uint64 {
	checkPoint(p, c.dims, c.side)
	return c.IndexFast(p, nil)
}

// IndexFast implements Curve.
//
// Index digits are emitted level-major, dimension Dims()-1 most significant
// within each level; a digit is complemented (t -> 2-t) when the sum of the
// index digits already emitted for the other dimensions is odd. Instead of
// materializing per-dimension digit arrays, each level's coordinate digit is
// extracted with a precomputed power-of-3 divide, and the flip parities are
// tracked as (total emitted) - (emitted by this dimension) using one scratch
// counter per dimension.
func (c *Peano) IndexFast(p Point, scratch []uint32) uint64 {
	own := scratchFor(scratch, c.dims)
	for i := range own {
		own[i] = 0
	}
	var sum uint32
	var idx uint64
	for j := 0; j < c.order; j++ {
		div := c.p3[c.order-1-j]
		for i := c.dims - 1; i >= 0; i-- {
			t := p[i] / div % 3
			if (sum-own[i])&1 == 1 {
				t = 2 - t
			}
			idx = idx*3 + uint64(t)
			own[i] += t
			sum += t
		}
	}
	return idx
}

// ScratchLen implements Curve.
func (c *Peano) ScratchLen() int { return c.dims }

// Point implements Inverter.
func (c *Peano) Point(idx uint64, dst Point) Point {
	checkIndex(idx, c.max)
	dst = ensure(dst, c.dims)
	// Index digits base 3, most significant first.
	n := c.dims * c.order
	ts := make([]uint8, n)
	for k := n - 1; k >= 0; k-- {
		ts[k] = uint8(idx % 3)
		idx /= 3
	}
	flips := make([]uint8, c.dims)
	for i := range dst {
		dst[i] = 0
	}
	k := 0
	for j := 0; j < c.order; j++ {
		for i := c.dims - 1; i >= 0; i-- {
			t := ts[k]
			k++
			d := t
			if flips[i]&1 == 1 {
				d = 2 - t
			}
			dst[i] = dst[i]*3 + uint32(d)
			for m := 0; m < c.dims; m++ {
				if m != i {
					flips[m] += t
				}
			}
		}
	}
	return dst
}
