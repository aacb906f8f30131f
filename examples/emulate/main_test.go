package main

import (
	"slices"
	"testing"

	"sfcsched/internal/core"
)

// Each verdict main prints must hold over the orders it compares: every
// order dispatches the whole trace once, EDF and C-SCAN match their
// references request for request, and multi-queue matches level for
// level while breaking ties inside a level differently.
func TestVerdictsHold(t *testing.T) {
	ids := func(order []*core.Request) (out []int) {
		for _, r := range order {
			out = append(out, int(r.ID))
		}
		return out
	}
	levels := func(order []*core.Request) (out []int) {
		for _, r := range order {
			out = append(out, r.Priorities[0])
		}
		return out
	}
	want := map[string]string{
		"EDF":         "exact match",
		"multi-queue": "level sequence matches exactly",
		"C-SCAN":      "exact match",
	}
	cs := compare()
	if len(cs) != len(want) {
		t.Fatalf("%d comparisons, want %d", len(cs), len(want))
	}
	for _, c := range cs {
		if got := c.verdict(); got != want[c.name] {
			t.Errorf("%s prints %q, want %q", c.name, got, want[c.name])
		}
		for _, order := range [][]*core.Request{c.emu, c.ref} {
			sorted := ids(order)
			slices.Sort(sorted)
			if distinct := slices.Compact(sorted); len(order) != 300 || len(distinct) != 300 {
				t.Errorf("%s: an order dispatches %d requests, %d distinct; want each of the 300 once", c.name, len(order), len(distinct))
			}
		}
		sameIDs := slices.Equal(ids(c.emu), ids(c.ref))
		sameLevels := slices.Equal(levels(c.emu), levels(c.ref))
		if c.name == "multi-queue" {
			if !sameLevels || sameIDs {
				t.Errorf("multi-queue: level sequences equal = %v, request orders equal = %v; want true, false", sameLevels, sameIDs)
			}
		} else if !sameIDs {
			t.Errorf("%s: request orders differ", c.name)
		}
	}
}
