package sfc

// The Gray-coded curve (Faloutsos): the bit-interleaved coordinate word of
// a cell is interpreted as a reflected-binary Gray codeword, and the cell's
// index is the codeword's rank in Gray-code order. Consecutive cells
// therefore differ in exactly one interleaved bit — one coordinate changes
// by a power of two — which gives the curve better clustering than Z-order
// but, as the paper observes, poor priority-inversion behavior.

// newGray returns a Gray-coded curve over a (2^bits)^dims grid.
// dims*bits must be at most 64.
func newGray(dims, bits int) (*curve, error) { return newBinary("gray", dims, bits, gray, 0) }

// gray is the Gray-coded kernel.
func gray(c *curve, p Point, _ []uint32) uint64 {
	return grayRank(interleave(p, c.digits))
}

// grayRank returns the rank of reflected-binary Gray codeword g: the n
// with g == n ^ n>>1.
func grayRank(g uint64) uint64 {
	n := g
	for shift := uint(1); shift < 64; shift <<= 1 {
		n ^= n >> shift
	}
	return n
}
