package sfc

import "fmt"

// The Morton (bit-interleaving) curve. It is not continuous, but serves as
// the substrate for the Gray-coded curve and as a cheap locality order in
// its own right. Dimension Dims()-1 contributes the most significant bit
// at every level.

// newZOrder returns a Z-order curve over a (2^bits)^dims grid.
// dims*bits must be at most 64.
func newZOrder(dims, bits int) (*curve, error) { return newBinary("zorder", dims, bits, zorder, 0) }

// newBinary returns a bijective curve over a (2^bits)^dims grid, whose
// kernel reads bits as its digits per axis.
func newBinary(name string, dims, bits int, index kernel, scratch int) (*curve, error) {
	if err := checkBinary(dims, bits); err != nil {
		return nil, err
	}
	g := grid{dims, 1 << bits, shiftMax(dims * bits)}
	return &curve{grid: g, name: name, bijective: true, scratch: scratch, digits: bits, index: index}, nil
}

// checkBinary validates a binary-grid configuration: the side 2^bits must
// fit in uint32, the index in uint64.
func checkBinary(dims, bits int) error {
	if dims < 1 {
		return fmt.Errorf("sfc: dims must be >= 1, got %d", dims)
	}
	if bits < 1 || bits > 31 {
		return fmt.Errorf("sfc: bits must be in [1,31] for a side 2^bits that fits uint32, got %d", bits)
	}
	if dims*bits > 64 {
		return fmt.Errorf("sfc: dims*bits = %d exceeds 64", dims*bits)
	}
	return nil
}

// shiftMax returns 2^n as an exclusive index bound, saturating at n == 64.
func shiftMax(n int) uint64 {
	if n >= 64 {
		return 1<<63 + (1<<63 - 1) // MaxUint64; 2^64 cells need the full range
	}
	return 1 << n
}

// zorder is the Z-order kernel.
func zorder(c *curve, p Point, _ []uint32) uint64 {
	return interleave(p, c.digits)
}

// interleave packs the bits of p into one word, most significant bit level
// first; within a level, higher dimensions are more significant.
func interleave(p Point, bits int) uint64 {
	var w uint64
	for b := bits - 1; b >= 0; b-- {
		for i := len(p) - 1; i >= 0; i-- {
			w = w<<1 | uint64(p[i]>>b&1)
		}
	}
	return w
}
