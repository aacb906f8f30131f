// Command sfcviz renders space-filling curves as ASCII art and order
// tables, the runnable counterpart of the paper's Figure 1.
//
// Usage:
//
//	sfcviz                      # draw all seven paper curves on 8x8 grids
//	sfcviz -curve hilbert -side 16
//	sfcviz -curve peano -side 9 -order    # print the visiting order table
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"sfcsched/internal/sfc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sfcviz: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes the rendering to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sfcviz", flag.ExitOnError)
	var (
		curve = fs.String("curve", "", "curve name (default: all paper curves)")
		side  = fs.Uint("side", 8, "grid side (rounded up to the curve's natural grid)")
		dims  = fs.Int("dims", 2, "dimensions (stats mode supports > 2)")
		order = fs.Bool("order", false, "print the index of every cell instead of arrows")
		stats = fs.Bool("stats", false, "print irregularity and locality statistics")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2, as flag.Parse does
	if *side > math.MaxUint32 {
		return fmt.Errorf("-side %d exceeds %d", *side, uint32(math.MaxUint32))
	}

	names := sfc.PaperNames()
	if *curve != "" {
		names = []string{*curve}
	}
	if *stats {
		return printStats(w, names, *dims, uint32(*side))
	}
	for _, name := range names {
		c, err := sfc.New(name, 2, uint32(*side))
		if err != nil {
			return err
		}
		if *order {
			printOrder(w, c)
		} else {
			draw(w, c)
		}
	}
	return nil
}

// printStats tabulates each curve's analysis (the quantities behind the
// paper's Fig. 5 and Fig. 7 results).
func printStats(w io.Writer, names []string, dims int, side uint32) error {
	fmt.Fprintf(w, "%-9s %8s %10s %10s %8s %9s  %s\n",
		"curve", "cells", "pair-inv", "stepback", "jumps", "max-step", "per-dim pair inversions")
	for _, name := range names {
		c, err := sfc.New(name, dims, side)
		if err != nil {
			return err
		}
		if !c.Bijective() {
			fmt.Fprintf(w, "%-9s order-only generalization (its index is an order, not a position to walk)\n", name)
			continue
		}
		a, err := sfc.Analyze(c)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "%-9s %8d %10.4f %10d %8d %9d  %v\n",
			name, a.Cells, a.PairInversionRate(), a.TotalIrregularity(),
			a.Jumps, a.MaxStep, a.PairInversionsPerDim)
	}
	return nil
}

// printOrder writes the curve index of each grid cell, row by row with the
// y axis pointing up.
func printOrder(w io.Writer, c sfc.Curve) {
	fmt.Fprintf(w, "%s (%dx%d), cell values are visiting order:\n", c.Name(), c.Side(), c.Side())
	n := c.Side()
	width := len(fmt.Sprintf("%d", c.MaxIndex()-1))
	for y := int(n) - 1; y >= 0; y-- {
		var row []string
		for x := uint32(0); x < n; x++ {
			row = append(row, fmt.Sprintf("%*d", width, c.Index(sfc.Point{x, uint32(y)})))
		}
		fmt.Fprintln(w, "  "+strings.Join(row, " "))
	}
	fmt.Fprintln(w)
}

// draw renders the traversal as direction glyphs along the visiting order;
// a curve Walk refuses gets the order table instead.
func draw(w io.Writer, c sfc.Curve) {
	n := int(c.Side())
	glyphs := make([][]rune, n)
	for i := range glyphs {
		glyphs[i] = []rune(strings.Repeat("·", n))
	}
	var prev sfc.Point
	err := sfc.Walk(c, func(p sfc.Point) {
		g := '●'
		if prev != nil {
			dx := int(p[0]) - int(prev[0])
			dy := int(p[1]) - int(prev[1])
			switch {
			case dx == 1 && dy == 0:
				g = '→'
			case dx == -1 && dy == 0:
				g = '←'
			case dx == 0 && dy == 1:
				g = '↑'
			case dx == 0 && dy == -1:
				g = '↓'
			default:
				g = '○' // non-adjacent jump landed here
			}
		}
		glyphs[p[1]][p[0]] = g
		prev = append(prev[:0], p...)
	})
	if err != nil {
		printOrder(w, c)
		return
	}
	fmt.Fprintf(w, "%s (%dx%d):\n", c.Name(), c.Side(), c.Side())
	for y := n - 1; y >= 0; y-- {
		fmt.Fprintln(w, "  "+string(glyphs[y]))
	}
	fmt.Fprintln(w)
}
