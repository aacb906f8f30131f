package sfc

// Gray is the Gray-coded curve (Faloutsos): the bit-interleaved coordinate
// word of a cell is interpreted as a reflected-binary Gray codeword, and the
// cell's index is the codeword's rank in Gray-code order. Consecutive cells
// therefore differ in exactly one interleaved bit — one coordinate changes
// by a power of two — which gives the curve better clustering than Z-order
// but, as the paper observes, poor priority-inversion behavior.
type Gray struct {
	grid
	bits int
}

// NewGray returns a Gray-coded curve over a (2^bits)^dims grid.
// dims*bits must be at most 64.
func NewGray(dims, bits int) (*Gray, error) {
	if err := checkBinary(dims, bits); err != nil {
		return nil, err
	}
	return &Gray{grid{dims, 1 << bits, shiftMax(dims * bits)}, bits}, nil
}

// Name implements Curve.
func (c *Gray) Name() string { return "gray" }

// Bijective implements Curve.
func (c *Gray) Bijective() bool { return true }

// Index implements Curve.
func (c *Gray) Index(p Point) uint64 {
	checkPoint(p, c.dims, c.side)
	return grayRank(interleave(p, c.bits))
}

// IndexFast implements Curve.
func (c *Gray) IndexFast(p Point, _ []uint32) uint64 {
	return grayRank(interleave(p, c.bits))
}

// Point implements Inverter.
func (c *Gray) Point(idx uint64, dst Point) Point {
	checkIndex(idx, c.max)
	dst = ensure(dst, c.dims)
	deinterleave(grayCode(idx), c.bits, dst)
	return dst
}

// grayCode returns the n-th reflected-binary Gray codeword.
func grayCode(n uint64) uint64 { return n ^ n>>1 }

// grayRank returns the rank of Gray codeword g (inverse of grayCode).
func grayRank(g uint64) uint64 {
	n := g
	for shift := uint(1); shift < 64; shift <<= 1 {
		n ^= n >> shift
	}
	return n
}
