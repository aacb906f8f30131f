package core

import (
	"math/big"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// encapsulatorGrids are the (from, to) pairs the cascade actually rescales
// between: curve index spaces (powers of two and of three), the stage-2
// resolution, deadline horizons, and the SFC3 partition grid.
var encapsulatorGrids = [][2]uint64{
	{4096, 65536},           // hilbert 3d/16 -> stage2Res
	{19683, 65536},          // peano 9^3 -> stage2Res
	{65536, 65536},          // identity
	{700_001, 65536},        // deadline horizon+1 -> stage2Res
	{65536, 9},              // stage2Res -> curve2 side
	{4294967296, 4096},      // stage-2 lexicographic space -> stage3Res
	{68719476736, 1366 * 3}, // large weighted-sum space -> ps*R
	{1000, 64},              // legacy test grid
}

// scaleFloat is the pre-integer float64 implementation of scale, kept as a
// test oracle: the exact path must agree with it on every grid whose
// products stay within float64's 53-bit mantissa (all grids the
// encapsulator uses).
func scaleFloat(v, from, to uint64) uint64 {
	if from == 0 {
		return 0
	}
	if v >= from {
		v = from - 1
	}
	return uint64(float64(v) * float64(to) / float64(from))
}

func TestScaleMatchesFloatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range encapsulatorGrids {
		from, to := g[0], g[1]
		// Only grids whose v*to products stay within float64's mantissa are
		// fair game for the oracle; all encapsulator grids qualify.
		if bits.Len64(from)+bits.Len64(to) > 53 {
			continue
		}
		for i := 0; i < 20000; i++ {
			v := rng.Uint64() % from
			if got, want := scale(v, from, to), scaleFloat(v, from, to); got != want {
				t.Fatalf("scale(%d, %d, %d) = %d, float oracle %d", v, from, to, got, want)
			}
		}
	}
}

// TestScaleExactAgainstBigInt checks the 128-bit path against math/big on
// grids large enough that v*to overflows uint64 — where the float oracle
// itself loses bits.
func TestScaleExactAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	grids := [][2]uint64{
		{1 << 62, 1<<62 - 3},
		{(1 << 63) - 25, 3486784401}, // 3^20
		{12157665459056928801, 65536},
		{18446744073709551557, 18446744073709551533},
	}
	for _, g := range grids {
		from, to := g[0], g[1]
		for i := 0; i < 5000; i++ {
			v := rng.Uint64() % from
			want := new(big.Int).Div(
				new(big.Int).Mul(new(big.Int).SetUint64(v), new(big.Int).SetUint64(to)),
				new(big.Int).SetUint64(from),
			).Uint64()
			if got := scale(v, from, to); got != want {
				t.Fatalf("scale(%d, %d, %d) = %d, want %d", v, from, to, got, want)
			}
		}
	}
}

// TestScaleOrderPreservingNonPow2 sweeps small grids exhaustively: the
// mapping must be monotone and land inside [0, to) for every ratio shape.
func TestScaleOrderPreservingNonPow2(t *testing.T) {
	for _, g := range [][2]uint64{{7, 5}, {5, 7}, {243, 65536}, {1000, 64}, {64, 1000}, {1, 1}, {3, 1}} {
		from, to := g[0], g[1]
		prev := uint64(0)
		for v := uint64(0); v < from; v++ {
			s := scale(v, from, to)
			if s >= to {
				t.Fatalf("scale(%d, %d, %d) = %d out of range", v, from, to, s)
			}
			if s < prev {
				t.Fatalf("scale(%d, %d, %d) = %d below prev %d", v, from, to, s, prev)
			}
			prev = s
		}
		// When downscaling, the top of the source range must reach the top
		// of the target (upscaling leaves gaps below to-1 by construction).
		if from >= to {
			if got := scale(from-1, from, to); got != to-1 {
				t.Fatalf("top of [0,%d) should map to %d, got %d", from, to-1, got)
			}
		}
	}
}

// TestDeadlineSpanBounds covers the corrected validation: zero defaults to
// the horizon, negative and over-horizon spans are rejected with a message
// describing the actual accepted interval.
func TestDeadlineSpanBounds(t *testing.T) {
	base := func(span int64) EncapsulatorConfig {
		return EncapsulatorConfig{
			Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 1000, DeadlineSpan: span,
		}
	}
	e := MustEncapsulator(base(0))
	if e.cfg.DeadlineSpan != 1000 {
		t.Errorf("zero span should default to the horizon, got %d", e.cfg.DeadlineSpan)
	}
	for _, span := range []int64{-1, -1000, 1001, 1 << 40} {
		_, err := NewEncapsulator(base(span))
		if err == nil {
			t.Errorf("span %d: expected error", span)
			continue
		}
		if !strings.Contains(err.Error(), "[0, DeadlineHorizon]") {
			t.Errorf("span %d: error %q does not state the accepted interval", span, err)
		}
	}
}
