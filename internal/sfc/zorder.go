package sfc

import "fmt"

// ZOrder is the Morton (bit-interleaving) curve. It is not continuous, but
// serves as the substrate for the Gray-coded curve and as a cheap locality
// order in its own right. Dimension Dims()-1 contributes the most
// significant bit at every level.
type ZOrder struct {
	grid
	bits int
}

// NewZOrder returns a Z-order curve over a (2^bits)^dims grid.
// dims*bits must be at most 64.
func NewZOrder(dims, bits int) (*ZOrder, error) {
	if err := checkBinary(dims, bits); err != nil {
		return nil, err
	}
	return &ZOrder{grid{dims, 1 << bits, shiftMax(dims * bits)}, bits}, nil
}

// checkBinary validates a binary-grid configuration.
func checkBinary(dims, bits int) error {
	if dims < 1 {
		return fmt.Errorf("sfc: dims must be >= 1, got %d", dims)
	}
	if bits < 1 || bits > 32 {
		return fmt.Errorf("sfc: bits must be in [1,32], got %d", bits)
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

// Name implements Curve.
func (c *ZOrder) Name() string { return "zorder" }

// Bijective implements Curve.
func (c *ZOrder) Bijective() bool { return true }

// Index implements Curve.
func (c *ZOrder) Index(p Point) uint64 {
	checkPoint(p, c.dims, c.side)
	return interleave(p, c.bits)
}

// IndexFast implements Curve.
func (c *ZOrder) IndexFast(p Point, _ []uint32) uint64 {
	return interleave(p, c.bits)
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
