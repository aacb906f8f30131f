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
	// Interleave the transposed words into the scalar index: bit plane b
	// is digit b of the index in base 2^dims, X[0] its top bit. Each plane
	// is gathered on its own dependency chain.
	var idx uint64
	for b := 0; b < c.bits; b++ {
		var plane uint64
		for _, w := range x {
			plane = plane<<1 | uint64(w>>b&1)
		}
		idx |= plane << (b * c.dims)
	}
	return idx
}

// ScratchLen implements Curve.
func (c *Hilbert) ScratchLen() int { return c.dims }

// axesToTranspose converts grid coordinates (in transpose layout) into the
// transposed Hilbert index in place. Skilling 2004, figure 2, without its
// branches: where bit b of X[i] is set, the inverse undo inverts the low
// bits of X[0], else it exchanges them with X[i]'s. Which one happens
// depends on the coordinates and mispredicts often, so a mask made from
// that bit selects between the two.
func axesToTranspose(x []uint32, bits int) {
	n := len(x)
	// Inverse undo. For i == 0 the exchange is a no-op.
	x0 := x[0]
	for b := bits - 1; b > 0; b-- {
		low := uint32(1)<<b - 1
		x0 ^= low & -(x0 >> b & 1)
		for i := 1; i < n; i++ {
			xi := x[i]
			invert := -(xi >> b & 1) // all ones where bit b is set
			t := (x0 ^ xi) & low &^ invert
			x0 ^= t | low&invert
			x[i] = xi ^ t
		}
	}
	x[0] = x0
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for b := bits - 1; b > 0; b-- {
		t ^= (uint32(1)<<b - 1) & -(x[n-1] >> b & 1)
	}
	for i := range x {
		x[i] ^= t
	}
}
