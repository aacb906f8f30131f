package sfc

import "fmt"

// Walk visits every cell of a bijective curve's grid in curve order. It
// maps each cell forward once, noting the cell's row-major rank at its
// curve position, then visits the positions in order; the cost is one
// IndexFast and four bytes per cell, so Walk refuses grids of more than
// 2^32 cells. It also refuses order-only curves, whose Index values are
// not positions.
//
// visit receives the same Point every call: it must copy a cell it keeps.
func Walk(c Curve, visit func(Point)) error {
	if !c.Bijective() {
		return fmt.Errorf("sfc: %s over %d dims is order-only and cannot be walked", c.Name(), c.Dims())
	}
	cells := c.MaxIndex()
	if cells > 1<<32 {
		return fmt.Errorf("sfc: grid of %d cells exceeds the walk bound %d", cells, uint64(1)<<32)
	}
	rank := make([]uint32, cells)
	eachIndex(c, cells, func(r, idx uint64) { rank[idx] = uint32(r) })
	p := make(Point, c.Dims())
	side := c.Side()
	for _, r := range rank {
		for i := range p {
			p[i] = r % side
			r /= side
		}
		visit(p)
	}
	return nil
}

// eachIndex enumerates the cells of c's grid in row-major (rank) order
// with an odometer and calls set with each cell's rank and curve index.
// Its points are valid by construction, so the unchecked IndexFast over
// one scratch serves: the checked Index allocates working memory per call.
func eachIndex(c Curve, cells uint64, set func(rank, idx uint64)) {
	p := make(Point, c.Dims())
	scratch := make([]uint32, c.ScratchLen())
	side := c.Side()
	for rank := uint64(0); rank < cells; rank++ {
		set(rank, c.IndexFast(p, scratch))
		for i := range p {
			p[i]++
			if p[i] < side {
				break
			}
			p[i] = 0
		}
	}
}
