package main

import "testing"

// The closing sentence main prints must hold over the rows it prints.
func TestClosingSentenceHolds(t *testing.T) {
	_, _, res := compare()
	cas := res[len(res)-1]
	lo, hi := cas.Makespan, cas.Makespan
	for i, r := range res[:len(res)-1] {
		if cas.Logical.Served <= r.Logical.Served || cas.Logical.TotalMisses() >= r.Logical.TotalMisses() ||
			cas.SeekTime >= r.SeekTime || cost(cas) >= cost(r) {
			t.Errorf("%s does not lose to the cascade on served, missed, seek and cost", policies[i])
		}
		lo, hi = min(lo, r.Makespan), max(hi, r.Makespan)
	}
	if 100*hi > 102*lo {
		t.Errorf("makespans span %d to %d µs, more than the 2%% the sentence allows", lo, hi)
	}
}
