package sfc

// This file implements the three lexicographic ("line-by-line") curves:
//
//   Sweep  — every line traversed in the same direction; the curve jumps
//            back to the start of the next line.
//   Scan   — boustrophedon (serpentine): each line reverses direction, so
//            consecutive cells are always grid neighbors.
//   C-Scan — cyclic scan: serpentine in every dimension except the lowest,
//            which is always traversed forward, modeling the return sweep
//            of the disk C-SCAN algorithm.
//
// All three order points primarily by dimension Dims()-1, which is why the
// paper finds them maximally unfair: the most significant dimension never
// sees a priority inversion while the others absorb all of them.

// newLexi returns the named lexicographic curve over a (side)^dims grid;
// index is its kernel.
func newLexi(name string, dims int, side uint32, index kernel) (*curve, error) {
	n, err := gridCells(dims, side)
	if err != nil {
		return nil, err
	}
	return &curve{grid: grid{dims, side, n}, name: name, bijective: true, index: index}, nil
}

// sweep is the row-major kernel.
func sweep(c *curve, p Point, _ []uint32) uint64 {
	var idx uint64
	for i := c.dims - 1; i >= 0; i-- {
		idx = idx*uint64(c.side) + uint64(p[i])
	}
	return idx
}

// scan is the boustrophedon (serpentine) kernel.
func scan(c *curve, p Point, _ []uint32) uint64 { return serpentine(c, p, 0) }

// cscan is serpentine above the lowest dimension and always forward in it.
func cscan(c *curve, p Point, _ []uint32) uint64 { return serpentine(c, p, 1) }

// serpentine ranks p with every dimension from low up reversible. A
// dimension's traversal reverses whenever the sum of the original
// coordinates of the more significant dimensions is odd (the n-ary
// reflected Gray construction), which keeps consecutive cells adjacent.
func serpentine(c *curve, p Point, low int) uint64 {
	var idx, sum uint64
	for i := c.dims - 1; i >= 0; i-- {
		d := uint64(p[i])
		adj := d
		if sum&1 == 1 && i >= low {
			adj = uint64(c.side) - 1 - d
		}
		idx = idx*uint64(c.side) + adj
		sum += d
	}
	return idx
}
