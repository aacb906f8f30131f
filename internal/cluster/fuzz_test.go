package cluster

import (
	"reflect"
	"testing"

	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// flatEvent is a comparable copy of one TraceEvent (the Request pointer
// is flattened to its identity fields).
type flatEvent struct {
	Now      int64
	Disk     int
	ID       uint64
	Tenant   int
	Class    int
	Head     int
	Seek     int64
	Service  int64
	Dropped  bool
	QueueLen int
}

// clusterSummary captures everything a divergent replay could disagree
// on: the full physical event stream plus the per-class, per-node and
// fairness ledgers.
type clusterSummary struct {
	Events   []flatEvent
	PerClass []ClassLedger
	Routed   []uint64
	Makespan int64
	Jain     float64
}

// ClassLedger is ClassStats minus the histogram (copied as quantiles so
// the summary is directly comparable).
type ClassLedger struct {
	Arrived, Admitted, AdmitDropped, Served, DispatchDropped, Late uint64
	P50, P99                                                       uint64
}

// FuzzClusterDeterminism extends the engine-determinism fuzzing across
// the cluster layer: fuzzed topology, router, admission and tenant skew
// must replay byte-identically run-to-run and across runner.Map worker
// counts (stateful routers and token buckets are rebuilt per cell, as
// sweeps do).
func FuzzClusterDeterminism(f *testing.F) {
	f.Add(uint64(1), uint16(300), byte(0), byte(0), true, byte(12))
	f.Add(uint64(2), uint16(500), byte(1), byte(1), true, byte(0))
	f.Add(uint64(3), uint16(200), byte(2), byte(0), false, byte(20))
	f.Add(uint64(4), uint16(800), byte(1), byte(1), false, byte(5))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, routerB, admitB byte, drop bool, skew byte) {
		count := int(n)%1200 + 50
		routers := []string{"rr", "least", "affinity"}
		rname := routers[int(routerB)%len(routers)]
		aname := []string{"always", "token"}[int(admitB)%2]

		run := func() (clusterSummary, error) {
			cfg := Config{
				Nodes: 3, DisksPerNode: 2, Disk: testDisk(t),
				NewScheduler: func(int, int) (sched.Scheduler, error) { return sched.NewSCANEDF(50_000), nil },
				DropLate:     drop,
			}
			var err error
			if cfg.Router, err = NewRouter(rname); err != nil {
				return clusterSummary{}, err
			}
			if cfg.Admission, err = NewAdmitter(aname, 3, 150, 20); err != nil {
				return clusterSummary{}, err
			}
			var sum clusterSummary
			cfg.Trace = func(ev sim.TraceEvent) {
				sum.Events = append(sum.Events, flatEvent{
					Now: ev.Now, Disk: ev.DiskID, ID: ev.Request.ID,
					Tenant: ev.Request.Tenant, Class: ev.Request.Class,
					Head: ev.Head, Seek: ev.Seek, Service: ev.Service,
					Dropped: ev.Dropped, QueueLen: ev.QueueLen,
				})
			}
			trace, err := workload.Open{
				Seed: seed, Count: count, MeanInterarrival: 2500,
				Dims: 1, Levels: 4,
				DeadlineMin: 100_000, DeadlineMax: 400_000,
				Cylinders: cfg.MaxBlocks(), Size: 64 << 10,
				Tenants: 6, TenantSkew: float64(skew) / 10, Classes: 3, TenantZones: true,
			}.Generate()
			if err != nil {
				return clusterSummary{}, err
			}
			res, err := Run(cfg, trace)
			if err != nil {
				return clusterSummary{}, err
			}
			sum.Makespan = res.Makespan
			sum.Jain = res.Jain()
			for _, ns := range res.PerNode {
				sum.Routed = append(sum.Routed, ns.Routed)
			}
			for _, cs := range res.PerClass {
				q := cs.Latency.Quantiles(0.5, 0.99)
				sum.PerClass = append(sum.PerClass, ClassLedger{
					Arrived: cs.Arrived, Admitted: cs.Admitted, AdmitDropped: cs.AdmitDropped,
					Served: cs.Served, DispatchDropped: cs.DispatchDropped, Late: cs.Late,
					P50: q[0], P99: q[1],
				})
			}
			return sum, nil
		}

		golden, err := run()
		if err != nil {
			t.Fatal(err)
		}
		// Sequential replay and a 4-worker parallel sweep of 3 cells must
		// all reproduce the golden summary exactly.
		cells, err := runner.Map(4, 3, func(int) (clusterSummary, error) { return run() })
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range cells {
			if !reflect.DeepEqual(golden, got) {
				t.Fatalf("router=%s admit=%s drop=%v: cell %d diverged from golden replay", rname, aname, drop, i)
			}
		}
		// Sanity: every arrival is accounted for.
		var arrived uint64
		for _, cl := range golden.PerClass {
			arrived += cl.Arrived
		}
		if arrived != uint64(count) {
			t.Fatalf("ledgers saw %d arrivals for a %d-request trace", arrived, count)
		}
	})
}
