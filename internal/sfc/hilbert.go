package sfc

// Hilbert is the d-dimensional Hilbert curve, implemented with John
// Skilling's transform ("Programming the Hilbert curve", AIP Conf. Proc.
// 707, 2004). The curve is continuous — consecutive cells are always grid
// neighbors — and is the most "fair" of the curves studied in the paper:
// no dimension dominates the order.
type Hilbert struct {
	grid
	bits int
}

// NewHilbert returns a Hilbert curve over a (2^bits)^dims grid.
// dims*bits must be at most 64.
func NewHilbert(dims, bits int) (*Hilbert, error) {
	if err := checkBinary(dims, bits); err != nil {
		return nil, err
	}
	return &Hilbert{grid{dims, 1 << bits, shiftMax(dims * bits)}, bits}, nil
}

// Name implements Curve.
func (c *Hilbert) Name() string { return "hilbert" }

// Bijective implements Curve.
func (c *Hilbert) Bijective() bool { return true }

// Index implements Curve.
func (c *Hilbert) Index(p Point) uint64 {
	checkPoint(p, c.dims, c.side)
	return c.IndexFast(p, nil)
}

// IndexFast implements Curve.
func (c *Hilbert) IndexFast(p Point, scratch []uint32) uint64 {
	// Work on a copy in Skilling's "transpose" layout: X[0] carries the
	// most significant interleaved bits.
	x := scratchFor(scratch, c.dims)
	for i := range x {
		x[i] = p[c.dims-1-i]
	}
	axesToTranspose(x, c.bits)
	// Interleave the transposed words into the scalar index.
	var idx uint64
	for b := c.bits - 1; b >= 0; b-- {
		for i := 0; i < c.dims; i++ {
			idx = idx<<1 | uint64(x[i]>>b&1)
		}
	}
	return idx
}

// ScratchLen implements Curve.
func (c *Hilbert) ScratchLen() int { return c.dims }

// Point implements Inverter.
func (c *Hilbert) Point(idx uint64, dst Point) Point {
	checkIndex(idx, c.max)
	dst = ensure(dst, c.dims)
	x := make([]uint32, c.dims)
	// De-interleave the scalar index into the transpose layout.
	for b := 0; b < c.bits; b++ {
		for i := c.dims - 1; i >= 0; i-- {
			x[i] |= uint32(idx&1) << b
			idx >>= 1
		}
	}
	transposeToAxes(x, c.bits)
	for i := range x {
		dst[c.dims-1-i] = x[i]
	}
	return dst
}

// axesToTranspose converts grid coordinates (in transpose layout) into the
// transposed Hilbert index in place. Skilling 2004, figure 2.
func axesToTranspose(x []uint32, bits int) {
	n := len(x)
	m := uint32(1) << (bits - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes converts a transposed Hilbert index into grid coordinates
// in place. Skilling 2004, figure 2 (reverse direction).
func transposeToAxes(x []uint32, bits int) {
	n := len(x)
	side := uint32(2) << (bits - 1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != side; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}
