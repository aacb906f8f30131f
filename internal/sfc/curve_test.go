package sfc

import (
	"testing"
	"testing/quick"
)

// bijectiveConfigs enumerates grid shapes exercised by the generic
// bijection test.
type config struct {
	name string
	dims int
	side uint32
}

func bijectiveConfigs() []config {
	return []config{
		{"sweep", 1, 7}, {"sweep", 2, 5}, {"sweep", 3, 4}, {"sweep", 4, 3},
		{"scan", 1, 7}, {"scan", 2, 5}, {"scan", 2, 4}, {"scan", 3, 3}, {"scan", 3, 4}, {"scan", 4, 3},
		{"cscan", 2, 5}, {"cscan", 2, 4}, {"cscan", 3, 3}, {"cscan", 4, 3},
		{"peano", 1, 9}, {"peano", 2, 3}, {"peano", 2, 9}, {"peano", 3, 3}, {"peano", 3, 9}, {"peano", 4, 3},
		{"gray", 1, 8}, {"gray", 2, 4}, {"gray", 2, 8}, {"gray", 3, 4}, {"gray", 4, 2},
		{"hilbert", 1, 8}, {"hilbert", 2, 4}, {"hilbert", 2, 16}, {"hilbert", 3, 4}, {"hilbert", 3, 8}, {"hilbert", 4, 4},
		{"zorder", 2, 8}, {"zorder", 3, 4},
		{"spiral", 2, 5}, {"spiral", 2, 9},
		{"diagonal", 2, 5}, {"diagonal", 2, 8},
		// The grids the round-trip fuzz and quick tests sampled, now
		// enumerated whole.
		{"peano", 2, 243}, {"peano", 3, 27}, {"hilbert", 4, 16},
		{"moore", 2, 64}, {"spiral", 2, 101}, {"diagonal", 2, 100},
	}
}

// continuousConfigs lists the curves whose consecutive cells must be grid
// neighbors (Manhattan distance exactly 1). Moore's last cell must also
// neighbor its first.
func continuousConfigs() []config {
	return []config{
		{"scan", 2, 4}, {"scan", 2, 5}, {"scan", 3, 3}, {"scan", 3, 4}, {"scan", 4, 3},
		{"peano", 2, 3}, {"peano", 2, 9}, {"peano", 2, 27}, {"peano", 3, 3}, {"peano", 3, 9}, {"peano", 4, 3},
		{"hilbert", 2, 4}, {"hilbert", 2, 16}, {"hilbert", 2, 32}, {"hilbert", 3, 4}, {"hilbert", 3, 8}, {"hilbert", 4, 4},
		{"spiral", 2, 5}, {"spiral", 2, 11},
		{"peano", 2, 243}, {"peano", 3, 27}, {"hilbert", 4, 16},
		{"moore", 2, 2}, {"moore", 2, 64}, {"spiral", 2, 101},
	}
}

// enumerate walks every cell of the curve's grid in coordinate order.
func enumerate(c Curve, visit func(Point)) {
	p := make(Point, c.Dims())
	var rec func(i int)
	rec = func(i int) {
		if i == c.Dims() {
			visit(p)
			return
		}
		for v := uint32(0); v < c.Side(); v++ {
			p[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

func TestBijection(t *testing.T) {
	for _, cfg := range bijectiveConfigs() {
		c, err := New(cfg.name, cfg.dims, cfg.side)
		if err != nil {
			t.Fatalf("New(%v): %v", cfg, err)
		}
		if !c.Bijective() {
			t.Fatalf("%s dims=%d: expected bijective", cfg.name, cfg.dims)
		}
		total := uint64(1)
		for i := 0; i < c.Dims(); i++ {
			total *= uint64(c.Side())
		}
		if got := c.MaxIndex(); got != total {
			t.Errorf("%s dims=%d side=%d: MaxIndex = %d, want %d", cfg.name, cfg.dims, c.Side(), got, total)
		}
		seen := make(map[uint64]bool, total)
		enumerate(c, func(p Point) {
			idx := c.Index(p)
			if idx >= c.MaxIndex() {
				t.Fatalf("%s: Index(%v) = %d >= MaxIndex %d", cfg.name, p, idx, c.MaxIndex())
			}
			if seen[idx] {
				t.Fatalf("%s dims=%d side=%d: duplicate index %d at %v", cfg.name, cfg.dims, c.Side(), idx, p)
			}
			seen[idx] = true
		})
		if uint64(len(seen)) != total {
			t.Errorf("%s: covered %d of %d cells", cfg.name, len(seen), total)
		}
	}
}

func TestContinuity(t *testing.T) {
	for _, cfg := range continuousConfigs() {
		c := MustNew(cfg.name, cfg.dims, cfg.side)
		cells := walk(t, c)
		if cfg.name == "moore" {
			cells = append(cells, cells[0]) // the closing step
		}
		for idx := 1; idx < len(cells); idx++ {
			if dist := manhattan(cells[idx-1], cells[idx]); dist != 1 {
				t.Fatalf("%s dims=%d side=%d: cells %d->%d jump from %v to %v (distance %d)",
					cfg.name, cfg.dims, c.Side(), idx-1, idx, cells[idx-1], cells[idx], dist)
			}
		}
	}
}

// walk returns c's cells in curve order, checking that Walk hands them out
// at their Index.
func walk(t testing.TB, c Curve) []Point {
	t.Helper()
	var cells []Point
	if err := Walk(c, func(p Point) {
		if got := c.Index(p); got != uint64(len(cells)) {
			t.Fatalf("%s: Walk visited %v at %d, Index %d", c.Name(), p, len(cells), got)
		}
		cells = append(cells, p.Clone())
	}); err != nil {
		t.Fatal(err)
	}
	if uint64(len(cells)) != c.MaxIndex() {
		t.Fatalf("%s: Walk visited %d of %d cells", c.Name(), len(cells), c.MaxIndex())
	}
	return cells
}

// TestWalkRefuses: order-only curves have no positions to walk, and a grid
// of more than 2^32 cells does not fit the uint32 ranks; both are refused
// before any cell is visited.
func TestWalkRefuses(t *testing.T) {
	for _, c := range []Curve{MustNew("spiral", 3, 5), MustNew("diagonal", 3, 4), MustNew("hilbert", 3, 1<<16)} {
		if err := Walk(c, func(Point) { t.Fatalf("%s: Walk visited a cell", c.Name()) }); err == nil {
			t.Errorf("%s dims=%d side=%d: Walk accepted it", c.Name(), c.Dims(), c.Side())
		}
	}
}

// TestLexicographicDominance verifies that sweep, scan and c-scan never
// invert two points that differ in the most significant dimension — the
// property behind the paper's "favored dimension" fairness findings.
func TestLexicographicDominance(t *testing.T) {
	for _, name := range []string{"sweep", "scan", "cscan"} {
		c := MustNew(name, 3, 4)
		last := c.Dims() - 1
		enumerate(c, func(p Point) {
			if p[last]+1 >= c.Side() {
				return
			}
			q := p.Clone()
			q[last]++
			if c.Index(p) >= c.Index(q) {
				t.Fatalf("%s: Index(%v) >= Index(%v)", name, p, q)
			}
		})
	}
}

func TestSweepKnownOrder(t *testing.T) {
	c := MustNew("sweep", 2, 3)
	// Row-major: dimension 1 is most significant.
	want := map[[2]uint32]uint64{
		{0, 0}: 0, {1, 0}: 1, {2, 0}: 2,
		{0, 1}: 3, {1, 1}: 4, {2, 1}: 5,
		{0, 2}: 6, {1, 2}: 7, {2, 2}: 8,
	}
	for p, idx := range want {
		if got := c.Index(Point{p[0], p[1]}); got != idx {
			t.Errorf("sweep Index(%v) = %d, want %d", p, got, idx)
		}
	}
}

func TestScanKnownOrder(t *testing.T) {
	c := MustNew("scan", 2, 3)
	// Serpentine: row 1 runs right-to-left.
	want := map[[2]uint32]uint64{
		{0, 0}: 0, {1, 0}: 1, {2, 0}: 2,
		{2, 1}: 3, {1, 1}: 4, {0, 1}: 5,
		{0, 2}: 6, {1, 2}: 7, {2, 2}: 8,
	}
	for p, idx := range want {
		if got := c.Index(Point{p[0], p[1]}); got != idx {
			t.Errorf("scan Index(%v) = %d, want %d", p, got, idx)
		}
	}
}

func TestCScanKnownOrder(t *testing.T) {
	c := MustNew("cscan", 2, 3)
	// Every row runs forward in dimension 0 (cyclic return).
	want := map[[2]uint32]uint64{
		{0, 0}: 0, {1, 0}: 1, {2, 0}: 2,
		{0, 1}: 3, {1, 1}: 4, {2, 1}: 5,
	}
	for p, idx := range want {
		if got := c.Index(Point{p[0], p[1]}); got != idx {
			t.Errorf("cscan Index(%v) = %d, want %d", p, got, idx)
		}
	}
}

func TestDiagonalKnownOrder(t *testing.T) {
	c := MustNew("diagonal", 2, 3)
	// Cantor zigzag: diagonal sums 0,1,2,... with alternating direction.
	want := map[[2]uint32]uint64{
		{0, 0}: 0,
		{1, 0}: 1, {0, 1}: 2, // odd diagonal: decreasing x
		{0, 2}: 3, {1, 1}: 4, {2, 0}: 5,
		{2, 1}: 6, {1, 2}: 7,
		{2, 2}: 8,
	}
	for p, idx := range want {
		if got := c.Index(Point{p[0], p[1]}); got != idx {
			t.Errorf("diagonal Index(%v) = %d, want %d", p, got, idx)
		}
	}
}

func TestSpiralCenterFirst(t *testing.T) {
	c := MustNew("spiral", 2, 5)
	if got := c.Index(Point{2, 2}); got != 0 {
		t.Errorf("spiral center index = %d, want 0", got)
	}
	// Ring 1 occupies indices 1..8, ring 2 occupies 9..24.
	ring1 := [][2]uint32{{3, 2}, {3, 3}, {2, 3}, {1, 3}, {1, 2}, {1, 1}, {2, 1}, {3, 1}}
	for _, p := range ring1 {
		idx := c.Index(Point{p[0], p[1]})
		if idx < 1 || idx > 8 {
			t.Errorf("spiral Index(%v) = %d, want within ring 1 (1..8)", p, idx)
		}
	}
}

func TestSpiralRoundsUpToOdd(t *testing.T) {
	c := MustNew("spiral", 2, 4)
	if c.Side() != 5 {
		t.Errorf("spiral side = %d, want 5 (rounded up to odd)", c.Side())
	}
}

func TestGrayNeighborsDifferInOneBit(t *testing.T) {
	c := MustNew("gray", 2, 8).(*Gray)
	cells := walk(t, c)
	for idx := 1; idx < len(cells); idx++ {
		diff := interleave(cells[idx], c.bits) ^ interleave(cells[idx-1], c.bits)
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("gray: cells %d and %d differ in bits %b", idx-1, idx, diff)
		}
	}
}

func TestGrayCodeRoundTrip(t *testing.T) {
	f := func(n uint64) bool { return grayRank(n^n>>1) == n }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegistryRejectsUnknown(t *testing.T) {
	if _, err := New("nope", 2, 4); err == nil {
		t.Error("expected error for unknown curve")
	}
	if _, err := New("sweep", 0, 4); err == nil {
		t.Error("expected error for zero dims")
	}
	if _, err := New("sweep", 2, 0); err == nil {
		t.Error("expected error for zero side")
	}
}

func TestRegistryRoundsSides(t *testing.T) {
	cases := []struct {
		name string
		min  uint32
		want uint32
	}{
		{"hilbert", 16, 16},
		{"hilbert", 17, 32},
		{"gray", 5, 8},
		{"peano", 16, 27},
		{"peano", 3, 3},
		{"spiral", 6, 7},
		{"sweep", 13, 13},
	}
	for _, tc := range cases {
		c := MustNew(tc.name, 2, tc.min)
		if c.Side() != tc.want {
			t.Errorf("%s minSide=%d: side = %d, want %d", tc.name, tc.min, c.Side(), tc.want)
		}
	}
}

func TestOverflowRejected(t *testing.T) {
	if _, err := NewSweep(5, 1<<20); err == nil {
		t.Error("expected overflow error for 2^100 cells")
	}
	if _, err := NewHilbert(9, 8); err == nil {
		t.Error("expected error for dims*bits > 64")
	}
	if _, err := NewPeano(9, 5); err == nil {
		t.Error("expected overflow error for 3^45 cells")
	}
}

func TestIndexPanicsOnBadPoint(t *testing.T) {
	c := MustNew("hilbert", 2, 4)
	for _, p := range []Point{{1}, {1, 2, 3}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%v) did not panic", p)
				}
			}()
			c.Index(p)
		}()
	}
}

func TestAllNamesConstructible(t *testing.T) {
	for _, name := range Names() {
		c, err := New(name, 2, 8)
		if err != nil {
			t.Errorf("New(%s): %v", name, err)
			continue
		}
		if c.Name() != name {
			t.Errorf("curve %s reports name %s", name, c.Name())
		}
	}
	for _, name := range PaperNames() {
		if _, err := New(name, 2, 8); err != nil {
			t.Errorf("paper curve %s: %v", name, err)
		}
	}
}

// TestOrderOnlyCurvesMonotoneInShell checks the documented d>2 spiral
// generalization: points in an inner Chebyshev shell always order before
// points in an outer shell.
func TestOrderOnlyCurvesMonotoneInShell(t *testing.T) {
	c := MustNew("spiral", 3, 5)
	if c.Bijective() {
		t.Fatal("3-D spiral should be order-only")
	}
	center := c.Index(Point{2, 2, 2})
	inner := c.Index(Point{3, 2, 2})
	outer := c.Index(Point{0, 0, 0})
	if !(center < inner && inner < outer) {
		t.Errorf("shell order violated: center=%d inner=%d outer=%d", center, inner, outer)
	}
}

// TestDiagonalNDOrderBySum checks the d>2 diagonal generalization orders by
// coordinate sum.
func TestDiagonalNDOrderBySum(t *testing.T) {
	c := MustNew("diagonal", 3, 4)
	if c.Bijective() {
		t.Fatal("3-D diagonal should be order-only")
	}
	low := c.Index(Point{1, 1, 0})
	high := c.Index(Point{3, 3, 3})
	if low >= high {
		t.Errorf("sum order violated: %d >= %d", low, high)
	}
}

func TestMooreBijectionAndContinuity(t *testing.T) {
	for _, bits := range []int{1, 2, 3, 4} {
		c, err := NewMoore(bits)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]bool, c.MaxIndex())
		enumerate(c, func(p Point) {
			idx := c.Index(p)
			if seen[idx] {
				t.Fatalf("bits=%d: duplicate index %d at %v", bits, idx, p)
			}
			seen[idx] = true
		})
		if uint64(len(seen)) != c.MaxIndex() {
			t.Fatalf("bits=%d: covered %d of %d", bits, len(seen), c.MaxIndex())
		}
		cells := walk(t, c)
		for idx := 1; idx < len(cells); idx++ {
			if manhattan(cells[idx-1], cells[idx]) != 1 {
				t.Fatalf("bits=%d: jump at %d: %v -> %v", bits, idx, cells[idx-1], cells[idx])
			}
		}
	}
}

// TestMooreIsClosed: the defining property — the last cell is adjacent to
// the first, unlike Hilbert.
func TestMooreIsClosed(t *testing.T) {
	m := walk(t, MustNew("moore", 2, 8))
	if manhattan(m[0], m[len(m)-1]) != 1 {
		t.Errorf("moore endpoints %v and %v not adjacent", m[0], m[len(m)-1])
	}
	h := walk(t, MustNew("hilbert", 2, 8))
	if manhattan(h[0], h[len(h)-1]) == 1 {
		t.Error("hilbert endpoints unexpectedly adjacent; moore would be redundant")
	}
}

func manhattan(a, b Point) int {
	d := 0
	for i := range a {
		v := int(a[i]) - int(b[i])
		if v < 0 {
			v = -v
		}
		d += v
	}
	return d
}

func TestMooreRegistry(t *testing.T) {
	c := MustNew("moore", 2, 8)
	if c.Name() != "moore" || c.Side() != 8 {
		t.Errorf("registry moore: %s side %d", c.Name(), c.Side())
	}
	if _, err := New("moore", 3, 8); err == nil {
		t.Error("expected error for 3-D moore")
	}
}
