package sfc

import "testing"

// Fuzz targets double as regression tests on their seed corpus and can be
// driven with `go test -fuzz` for deeper exploration. They cover grids too
// large for TestBijection and TestContinuity to enumerate.

// checkSuccessor fails unless Index(p) is below MaxIndex and, unless p is
// the last cell, one grid neighbor of p holds index Index(p)+1: the
// continuity of the curve, checked forward from one cell.
func checkSuccessor(t *testing.T, c Curve, p Point) {
	t.Helper()
	idx := c.Index(p)
	if idx >= c.MaxIndex() {
		t.Fatalf("%s: Index(%v) = %d >= MaxIndex %d", c.Name(), p, idx, c.MaxIndex())
	}
	if idx == c.MaxIndex()-1 {
		return
	}
	q := p.Clone()
	for i := range q {
		// p[i]-1 wraps past Side() at 0 and is skipped.
		for _, v := range []uint32{p[i] - 1, p[i] + 1} {
			if v >= c.Side() {
				continue
			}
			q[i] = v
			if c.Index(q) == idx+1 {
				return
			}
		}
		q[i] = p[i]
	}
	t.Fatalf("%s: no neighbor of %v (index %d) holds index %d", c.Name(), p, idx, idx+1)
}

func FuzzHilbertSuccessor(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0))
	f.Add(uint16(31), uint16(17), uint16(5))
	f.Add(uint16(65535), uint16(1), uint16(32768))
	c, err := newHilbert(3, 16)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b, d uint16) {
		checkSuccessor(t, c, Point{uint32(a), uint32(b), uint32(d)})
	})
}

// FuzzPeanoSuccessor runs on fig6's largest grid: 12 dimensions of side 27.
// Each coordinate is one 5-bit field of the input, reduced mod 27.
func FuzzPeanoSuccessor(f *testing.F) {
	var last uint64 // every coordinate 26: the curve's last cell
	for i := 0; i < 12; i++ {
		last |= 26 << (5 * i)
	}
	f.Add(uint64(0))
	f.Add(uint64(0x0123456789abcdef))
	f.Add(last)
	c, err := newPeano(12, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		p := make(Point, 12)
		for i := range p {
			p[i] = uint32(bits>>(5*i)&31) % 27
		}
		checkSuccessor(t, c, p)
	})
}
