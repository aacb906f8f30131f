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

// Sweep is the row-major curve.
type Sweep struct{ grid }

// NewSweep returns a Sweep curve over a (side)^dims grid.
func NewSweep(dims int, side uint32) (*Sweep, error) {
	n, err := gridCells(dims, side)
	if err != nil {
		return nil, err
	}
	return &Sweep{grid{dims, side, n}}, nil
}

// Name implements Curve.
func (c *Sweep) Name() string { return "sweep" }

// Bijective implements Curve.
func (c *Sweep) Bijective() bool { return true }

// Index implements Curve.
func (c *Sweep) Index(p Point) uint64 {
	checkPoint(p, c.dims, c.side)
	return c.IndexFast(p, nil)
}

// IndexFast implements Curve.
func (c *Sweep) IndexFast(p Point, _ []uint32) uint64 {
	var idx uint64
	for i := c.dims - 1; i >= 0; i-- {
		idx = idx*uint64(c.side) + uint64(p[i])
	}
	return idx
}

// Point implements Inverter.
func (c *Sweep) Point(idx uint64, dst Point) Point {
	checkIndex(idx, c.max)
	dst = ensure(dst, c.dims)
	for i := 0; i < c.dims; i++ {
		dst[i] = uint32(idx % uint64(c.side))
		idx /= uint64(c.side)
	}
	return dst
}

// Scan is the boustrophedon (serpentine) curve.
type Scan struct{ grid }

// NewScan returns a Scan curve over a (side)^dims grid.
func NewScan(dims int, side uint32) (*Scan, error) {
	n, err := gridCells(dims, side)
	if err != nil {
		return nil, err
	}
	return &Scan{grid{dims, side, n}}, nil
}

// Name implements Curve.
func (c *Scan) Name() string { return "scan" }

// Bijective implements Curve.
func (c *Scan) Bijective() bool { return true }

// Index implements Curve.
func (c *Scan) Index(p Point) uint64 {
	checkPoint(p, c.dims, c.side)
	return c.IndexFast(p, nil)
}

// IndexFast implements Curve.
func (c *Scan) IndexFast(p Point, _ []uint32) uint64 {
	// A dimension's traversal reverses whenever the sum of the original
	// coordinates of the more significant dimensions is odd (the n-ary
	// reflected Gray construction), which keeps consecutive cells adjacent.
	var idx, sum uint64
	for i := c.dims - 1; i >= 0; i-- {
		d := uint64(p[i])
		adj := d
		if sum&1 == 1 {
			adj = uint64(c.side) - 1 - d
		}
		idx = idx*uint64(c.side) + adj
		sum += d
	}
	return idx
}

// Point implements Inverter.
func (c *Scan) Point(idx uint64, dst Point) Point {
	checkIndex(idx, c.max)
	dst = ensure(dst, c.dims)
	div := c.max
	var sum uint64
	for i := c.dims - 1; i >= 0; i-- {
		div /= uint64(c.side)
		adj := idx / div
		idx %= div
		v := adj
		if sum&1 == 1 {
			v = uint64(c.side) - 1 - adj
		}
		dst[i] = uint32(v)
		sum += v
	}
	return dst
}

// CScan is the cyclic-scan curve: serpentine above the lowest dimension,
// always-forward in the lowest dimension.
type CScan struct{ grid }

// NewCScan returns a C-Scan curve over a (side)^dims grid.
func NewCScan(dims int, side uint32) (*CScan, error) {
	n, err := gridCells(dims, side)
	if err != nil {
		return nil, err
	}
	return &CScan{grid{dims, side, n}}, nil
}

// Name implements Curve.
func (c *CScan) Name() string { return "cscan" }

// Bijective implements Curve.
func (c *CScan) Bijective() bool { return true }

// Index implements Curve.
func (c *CScan) Index(p Point) uint64 {
	checkPoint(p, c.dims, c.side)
	return c.IndexFast(p, nil)
}

// IndexFast implements Curve.
func (c *CScan) IndexFast(p Point, _ []uint32) uint64 {
	var idx, sum uint64
	for i := c.dims - 1; i >= 0; i-- {
		d := uint64(p[i])
		adj := d
		if sum&1 == 1 && i != 0 {
			adj = uint64(c.side) - 1 - d
		}
		idx = idx*uint64(c.side) + adj
		sum += d
	}
	return idx
}

// Point implements Inverter.
func (c *CScan) Point(idx uint64, dst Point) Point {
	checkIndex(idx, c.max)
	dst = ensure(dst, c.dims)
	div := c.max
	var sum uint64
	for i := c.dims - 1; i >= 0; i-- {
		div /= uint64(c.side)
		adj := idx / div
		idx %= div
		v := adj
		if sum&1 == 1 && i != 0 {
			v = uint64(c.side) - 1 - adj
		}
		dst[i] = uint32(v)
		sum += v
	}
	return dst
}

// ensure returns dst if it has the right length, else a fresh Point.
func ensure(dst Point, dims int) Point {
	if len(dst) == dims {
		return dst
	}
	return make(Point, dims)
}
