package sfc

import (
	"fmt"
	"math/rand"
	"testing"
)

// hilbertRef is Skilling's axes-to-transpose and the bit interleave as
// "Programming the Hilbert curve" (AIP Conf. Proc. 707, 2004, figure 2)
// writes them, one branch per bit: the reference the Hilbert kernel is
// checked against. p's last coordinate is Skilling's X[0].
func hilbertRef(p Point, bits int) uint64 {
	n := len(p)
	x := make([]uint32, n)
	for i := range x {
		x[i] = p[n-1-i]
	}
	m := uint32(1) << (bits - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
	// Interleave, most significant bit plane first.
	var idx uint64
	for b := bits - 1; b >= 0; b-- {
		for i := 0; i < n; i++ {
			idx = idx<<1 | uint64(x[i]>>b&1)
		}
	}
	return idx
}

// TestHilbertMatchesReferenceOnEveryCell checks every cell of every grid
// of at most 2^16 cells.
func TestHilbertMatchesReferenceOnEveryCell(t *testing.T) {
	for dims := 1; dims <= 16; dims++ {
		for bits := 1; dims*bits <= 16; bits++ {
			c, err := newHilbert(dims, bits)
			if err != nil {
				t.Fatal(err)
			}
			p := make(Point, dims)
			scratch := make([]uint32, dims)
			for cell := uint64(0); cell < c.MaxIndex(); cell++ {
				for i := range p { // cell's digits in base 2^bits
					p[i] = uint32(cell >> (i * bits) & (1<<bits - 1))
				}
				if got, want := c.IndexFast(p, scratch), hilbertRef(p, bits); got != want {
					t.Fatalf("(%dd, %d bits) IndexFast(%v) = %d, reference %d", dims, bits, p, got, want)
				}
			}
		}
	}
}

// TestHilbertMatchesReferenceAtHighDims checks 10^5 seeded random points
// on the 12- and 16-dimensional grids the cascades use.
func TestHilbertMatchesReferenceAtHighDims(t *testing.T) {
	for _, g := range []struct{ dims, bits int }{{12, 3}, {16, 4}} {
		c, err := newHilbert(g.dims, g.bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(g.dims)))
		p := make(Point, g.dims)
		scratch := make([]uint32, g.dims)
		for range 100_000 {
			for i := range p {
				p[i] = uint32(rng.Intn(1 << g.bits))
			}
			if got, want := c.IndexFast(p, scratch), hilbertRef(p, g.bits); got != want {
				t.Fatalf("(%dd, %d bits) IndexFast(%v) = %d, reference %d", g.dims, g.bits, p, got, want)
			}
		}
	}
}

// BenchmarkHilbertIndexFast times the kernel alone, with no lookup table,
// at the cascade's three dimensionalities.
func BenchmarkHilbertIndexFast(b *testing.B) {
	for _, g := range []struct{ dims, bits int }{{3, 3}, {12, 3}, {16, 4}} {
		b.Run(fmt.Sprintf("d%d", g.dims), func(b *testing.B) {
			c, err := newHilbert(g.dims, g.bits)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			pts := make([]Point, 1024)
			for k := range pts {
				pts[k] = make(Point, g.dims)
				for i := range pts[k] {
					pts[k][i] = uint32(rng.Intn(1 << g.bits))
				}
			}
			scratch := make([]uint32, g.dims)
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint64
			for i := range b.N {
				sink += c.IndexFast(pts[i&1023], scratch)
			}
			benchSink = sink
		})
	}
}

var benchSink uint64
