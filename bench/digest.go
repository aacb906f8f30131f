package main

import (
	"fmt"

	"sfcsched/internal/cluster"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sim"
)

// digest is what a run of the modelled system must reproduce exactly: the
// simulated outcome, independent of how fast the host computed it. Two
// runs of one input with equal digests made the same scheduling decisions
// as far as any §5–6 metric can tell. Order is a rolling hash of the
// dispatch order where the workload sees every dispatch (sched-churn,
// the serve-live preload), 0 elsewhere.
type digest struct {
	Served     uint64
	Dropped    uint64
	Late       uint64
	Inversions uint64
	HeadTravel int64
	Makespan   int64
	Order      uint64
}

func digestOf(res *sim.Result) digest {
	return digest{
		Served: res.Served, Dropped: res.Dropped, Late: res.Late,
		Inversions: res.TotalInversions(), HeadTravel: res.HeadTravel, Makespan: res.Makespan,
	}
}

// mixOrder folds one dispatched request ID into a rolling order hash
// (FNV-1a step over the 64-bit ID).
func mixOrder(h, id uint64) uint64 {
	return (h ^ id) * 1099511628211
}

// checks counts the benchmark's output checks. A failed check is a host
// failure (ops_failed), never a simulated deadline loss.
type checks struct {
	failed int64
	notes  []string
}

// fail records one failed check; only the first few are kept verbatim.
func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// merge folds another ledger's failures into c.
func (c *checks) merge(o *checks) {
	c.failed += o.failed
	c.notes = append(c.notes, o.notes...)
}

// equalDigests records one failure per arm whose digest differs.
func (c *checks) equalDigests(what string, want, got []digest) {
	if len(want) != len(got) {
		c.fail("%s: %d digests, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			c.fail("%s: arm %d digest %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// conserved checks a collector's conservation invariant: every arrival is
// served or dropped, and late services are a subset of the served.
func (c *checks) conserved(what string, col *metrics.Collector) {
	if col.Arrived != col.Served+col.Dropped {
		c.fail("%s: arrived %d != served %d + dropped %d", what, col.Arrived, col.Served, col.Dropped)
	}
	if col.Late > col.Served {
		c.fail("%s: late %d > served %d", what, col.Late, col.Served)
	}
}

// arrayConserved checks the RAID-5 run: the logical ledger balances, and on
// every disk each physical operation enqueued was served or dropped.
func (c *checks) arrayConserved(res *sim.ArrayResult, logical int) {
	if res.Logical.Arrived != uint64(logical) {
		c.fail("array: %d logical arrivals, want %d", res.Logical.Arrived, logical)
	}
	c.conserved("array logical", res.Logical)
	for d, col := range res.PerDisk {
		if got := col.Served + col.Dropped; got != res.PerDiskOps[d] {
			c.fail("array disk %d: served+dropped %d != %d ops enqueued", d, got, res.PerDiskOps[d])
		}
	}
}

// clusterConserved checks every per-class ledger (arrived = served +
// dispatch-dropped + admit-dropped), that the classes add up to the trace,
// and every member disk's collector.
func (c *checks) clusterConserved(res *cluster.Result, requests int) {
	var arrived uint64
	for _, cs := range res.PerClass {
		arrived += cs.Arrived
		if cs.Arrived != cs.Served+cs.DispatchDropped+cs.AdmitDropped {
			c.fail("cluster class %d: arrived %d != served %d + dropped %d + admit-dropped %d",
				cs.Class, cs.Arrived, cs.Served, cs.DispatchDropped, cs.AdmitDropped)
		}
		if cs.Admitted+cs.AdmitDropped != cs.Arrived {
			c.fail("cluster class %d: admitted %d + admit-dropped %d != arrived %d",
				cs.Class, cs.Admitted, cs.AdmitDropped, cs.Arrived)
		}
	}
	if arrived != uint64(requests) {
		c.fail("cluster: %d arrivals over all classes, want %d", arrived, requests)
	}
	for d, col := range res.PerDisk {
		c.conserved(fmt.Sprintf("cluster disk %d", d), col)
	}
}
