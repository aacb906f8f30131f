package sfc

import "fmt"

// Analysis quantifies the order-preservation and locality properties that
// drive the scheduling results, following the irregularity analysis of the
// authors' companion papers (Mokbel & Aref, CIKM 2001; Mokbel, Aref &
// Kamel, GeoInformatica 2003).
type Analysis struct {
	// Cells is the number of grid cells walked.
	Cells uint64
	// IrregularityPerDim[k] counts steps that move backward in dimension
	// k — the local (per-step) reversal tendency.
	IrregularityPerDim []uint64
	// PairInversionsPerDim[k] counts pairs of cells served out of
	// dimension-k coordinate order: cells (i, j) with i before j on the
	// curve but i's k-coordinate strictly greater than j's. This is the
	// companion papers' irregularity measure, and a scheduler built on the
	// curve inherits priority inversions in dimension k roughly in
	// proportion to it.
	PairInversionsPerDim []uint64
	// Jumps counts steps between non-adjacent cells (Manhattan distance
	// greater than 1); zero for the continuous curves (Scan, Peano,
	// Hilbert, 2-D Spiral).
	Jumps uint64
	// MeanStep and MaxStep summarize the Manhattan step lengths.
	MeanStep float64
	MaxStep  uint64
}

// maxAnalysisCells bounds exhaustive curve walks; a 16^4 grid (65536
// cells) walks in well under a millisecond, and no analysis needs more
// resolution than that to rank curves.
const maxAnalysisCells = 1 << 22

// Analyze walks the whole curve and tabulates its irregularity and step
// statistics. The curve must be bijective and its grid must have at most
// 2^22 cells.
func Analyze(c Curve) (*Analysis, error) {
	n := c.MaxIndex()
	if c.Bijective() && n > maxAnalysisCells { // Walk refuses order-only curves
		return nil, fmt.Errorf("sfc: grid of %d cells exceeds analysis bound %d", n, maxAnalysisCells)
	}
	a := &Analysis{
		Cells:                n,
		IrregularityPerDim:   make([]uint64, c.Dims()),
		PairInversionsPerDim: make([]uint64, c.Dims()),
	}
	// Per-dimension pair inversions via one Fenwick tree per dimension:
	// walking the curve, each cell contributes the number of already-seen
	// cells with a strictly larger coordinate.
	trees := make([]fenwick, c.Dims())
	for k := range trees {
		trees[k] = newFenwick(int(c.Side()))
	}
	var prev Point
	var totalStep uint64
	err := Walk(c, func(cur Point) {
		for k, v := range cur {
			a.PairInversionsPerDim[k] += trees[k].countGreater(v)
			trees[k].add(v)
		}
		if prev == nil {
			prev = cur.Clone()
			return
		}
		var step uint64
		for k := range cur {
			d := int64(cur[k]) - int64(prev[k])
			if d < 0 {
				a.IrregularityPerDim[k]++
				d = -d
			}
			step += uint64(d)
		}
		if step > 1 {
			a.Jumps++
		}
		if step > a.MaxStep {
			a.MaxStep = step
		}
		totalStep += step
		copy(prev, cur)
	})
	if err != nil {
		return nil, err
	}
	if n > 1 {
		a.MeanStep = float64(totalStep) / float64(n-1)
	}
	return a, nil
}

// fenwick is a binary indexed tree over coordinate values.
type fenwick struct {
	tree []uint64
	n    int
}

func newFenwick(n int) fenwick { return fenwick{tree: make([]uint64, n+1), n: n} }

// add records one occurrence of coordinate v.
func (f fenwick) add(v uint32) {
	for i := int(v) + 1; i <= f.n; i += i & (-i) {
		f.tree[i]++
	}
}

// countGreater returns how many recorded coordinates exceed v.
func (f fenwick) countGreater(v uint32) uint64 {
	// total - count(<= v)
	var le uint64
	for i := int(v) + 1; i > 0; i -= i & (-i) {
		le += f.tree[i]
	}
	var total uint64
	for i := f.n; i > 0; i -= i & (-i) {
		total += f.tree[i]
	}
	return total - le
}

// TotalIrregularity sums the per-dimension irregularity counts.
func (a *Analysis) TotalIrregularity() uint64 {
	var t uint64
	for _, v := range a.IrregularityPerDim {
		t += v
	}
	return t
}

// TotalPairInversions sums the per-dimension pair-inversion counts.
func (a *Analysis) TotalPairInversions() uint64 {
	var t uint64
	for _, v := range a.PairInversionsPerDim {
		t += v
	}
	return t
}

// PairInversionRate normalizes the total pair inversions by the number of
// cell pairs, giving a curve-size-independent figure in [0, 1] per
// dimension on average.
func (a *Analysis) PairInversionRate() float64 {
	if a.Cells < 2 || len(a.PairInversionsPerDim) == 0 {
		return 0
	}
	pairs := float64(a.Cells) * float64(a.Cells-1) / 2
	return float64(a.TotalPairInversions()) / pairs / float64(len(a.PairInversionsPerDim))
}
