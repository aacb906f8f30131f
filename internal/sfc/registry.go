package sfc

import (
	"fmt"
	"sort"
)

// Names returns the registry names of all supported curves, sorted.
func Names() []string {
	names := []string{"sweep", "scan", "cscan", "peano", "gray", "hilbert", "moore", "spiral", "diagonal", "zorder"}
	sort.Strings(names)
	return names
}

// PaperNames returns the seven curves of the paper's Figure 1, in the
// paper's presentation order.
func PaperNames() []string {
	return []string{"sweep", "cscan", "scan", "gray", "hilbert", "spiral", "peano"}
}

// New constructs the named curve over dims dimensions with at least minSide
// cells per dimension. Curves with granularity constraints (binary curves
// need a power-of-two side, Peano a power of three, the 2-D spiral an odd
// side) round the side up to their natural grid; callers must consult
// Side() on the result rather than assume minSide.
func New(name string, dims int, minSide uint32) (Curve, error) {
	if minSide < 1 {
		return nil, fmt.Errorf("sfc: minSide must be >= 1, got %d", minSide)
	}
	bits := max(1, log2Ceil(minSide))
	var c *curve
	var err error
	switch name {
	case "sweep":
		c, err = newLexi(name, dims, minSide, sweep)
	case "scan":
		c, err = newLexi(name, dims, minSide, scan)
	case "cscan":
		c, err = newLexi(name, dims, minSide, cscan)
	case "peano":
		c, err = newPeano(dims, pow3Ceil(minSide))
	case "gray":
		c, err = newGray(dims, bits)
	case "hilbert":
		c, err = newHilbert(dims, bits)
	case "moore":
		if dims != 2 {
			return nil, fmt.Errorf("sfc: moore curve is 2-dimensional, got %d dims", dims)
		}
		c, err = newMoore(bits)
	case "zorder":
		c, err = newZOrder(dims, bits)
	case "spiral":
		c, err = newSpiral(dims, minSide)
	case "diagonal":
		c, err = newDiagonal(dims, minSide)
	default:
		return nil, fmt.Errorf("sfc: unknown curve %q", name)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(name string, dims int, minSide uint32) Curve {
	c, err := New(name, dims, minSide)
	if err != nil {
		panic(err)
	}
	return c
}
