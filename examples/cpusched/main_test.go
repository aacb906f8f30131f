package main

import "testing"

// The closing sentence main prints must hold over the rows it prints.
func TestClosingSentenceHolds(t *testing.T) {
	res := compare()
	cas, edf, fcfs := res[0], res[1], res[2]
	if 2*cas.TotalInversions() >= edf.TotalInversions() || cas.TotalInversions() >= fcfs.TotalInversions() ||
		cas.TotalMisses() <= edf.TotalMisses() || cas.TotalMisses() <= fcfs.TotalMisses() {
		t.Errorf("inversions %d/%d/%d and misses %d/%d/%d (cascade/EDF/FCFS) contradict the sentence",
			cas.TotalInversions(), edf.TotalInversions(), fcfs.TotalInversions(),
			cas.TotalMisses(), edf.TotalMisses(), fcfs.TotalMisses())
	}
}
