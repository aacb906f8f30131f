package sfc_test

import (
	"fmt"

	"sfcsched/internal/sfc"
)

// ExampleCurve shows the 4x4 Hilbert traversal: every cell visited once,
// consecutive cells adjacent.
func ExampleCurve() {
	c := sfc.MustNew("hilbert", 2, 4)
	visited := 0
	err := sfc.Walk(c, func(p sfc.Point) {
		if visited < 8 {
			fmt.Println(p)
		}
		visited++
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output:
	// [0 0]
	// [0 1]
	// [1 1]
	// [1 0]
	// [2 0]
	// [3 0]
	// [3 1]
	// [2 1]
}

// ExampleNew demonstrates natural-grid rounding: binary curves need a
// power-of-two side, Peano a power of three.
func ExampleNew() {
	h, _ := sfc.New("hilbert", 2, 20)
	p, _ := sfc.New("peano", 2, 20)
	fmt.Println(h.Side(), p.Side())
	// Output: 32 27
}

// ExampleAnalyze compares curve fairness: Hilbert spreads its pair
// inversions over the dimensions, sweep protects the last one completely.
func ExampleAnalyze() {
	for _, name := range []string{"sweep", "hilbert"} {
		a, _ := sfc.Analyze(sfc.MustNew(name, 2, 8))
		fmt.Printf("%s: continuous=%v per-dim inversions=%v\n",
			name, a.Jumps == 0, a.PairInversionsPerDim)
	}
	// Output:
	// sweep: continuous=false per-dim inversions=[784 0]
	// hilbert: continuous=true per-dim inversions=[896 312]
}
