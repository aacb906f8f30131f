package sfc

// The 2-D Moore curve: a closed Hilbert loop. Four Hilbert sub-curves of
// half the side are rotated so the traversal's last cell is adjacent to its
// first.
//
// The reproduction adds it beyond the paper's seven curves because the
// open Hilbert curve's endpoint lands on an urgent cell of the
// (priority, deadline) scheduling plane — fresh high-priority requests
// then serve last (see EXPERIMENTS.md, Fig. 11). Closing the loop removes
// the pathological endpoint while preserving Hilbert's locality.

// newMoore returns a Moore curve over a (2^bits)^2 grid.
func newMoore(bits int) (*curve, error) { return newBinary("moore", 2, bits, moore, 4) }

// Quadrant traversal. The sub-curve runs corner to corner along its left
// edge, (0,0) to (0, half-1), so each quadrant holds a reflected copy
// whose endpoints land on the junction corners: the left column is walked
// upward (BL then TL, each mirrored across the vertical axis), the right
// column downward (TR then BR, each mirrored across the horizontal axis),
// and BR's exit cell is adjacent to BL's entry cell — a closed loop.

// moore is the Moore kernel: the quadrant, then the Hilbert index of the
// cell within it, with the sub-point and its scratch in scratch.
func moore(c *curve, p Point, scratch []uint32) uint64 {
	m := c.side / 2
	x, y := p[0], p[1]
	var q uint64
	var hx, hy uint32 // sub-grid coordinates after undoing the reflection
	switch {
	case x < m && y < m: // BL: (x,y) = (m-1-hx, hy)
		q, hx, hy = 0, m-1-x, y
	case x < m: // TL: (x,y) = (m-1-hx, hy+m)
		q, hx, hy = 1, m-1-x, y-m
	case y >= m: // TR: (x,y) = (hx+m, 2m-1-hy)
		q, hx, hy = 2, x-m, m-1-(y-m)
	default: // BR: (x,y) = (hx+m, m-1-hy)
		q, hx, hy = 3, x-m, m-1-y
	}
	quarter := c.max / 4
	var sub uint64
	if c.digits > 1 {
		s := scratchFor(scratch, 4)
		s[0], s[1] = hx, hy
		sub = hilbertIndex(Point(s[:2]), c.digits-1, s[2:4])
	}
	return q*quarter + sub
}
