package cluster

import (
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

func testDisk(t testing.TB) *disk.Model {
	t.Helper()
	m, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testConfig(t testing.TB, nodes, dpn int) Config {
	return Config{
		Nodes: nodes, DisksPerNode: dpn, Disk: testDisk(t),
		NewScheduler: func(int, int) (sched.Scheduler, error) { return sched.NewSCANEDF(50_000), nil },
		DropLate:     true,
	}
}

func testTrace(t testing.TB, cfg Config, seed uint64, count int, inter int64, skew float64) []*core.Request {
	t.Helper()
	reqs, err := workload.Open{
		Seed: seed, Count: count, MeanInterarrival: inter,
		Dims: 1, Levels: 4,
		DeadlineMin: 100_000, DeadlineMax: 400_000,
		Cylinders: cfg.MaxBlocks(), Size: 64 << 10,
		Tenants: 8, TenantSkew: skew, Classes: 3, TenantZones: true,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// Every arrival must land in exactly one outcome bucket of its class, and
// the per-class, per-node and per-disk ledgers must tie out against each
// other and the trace.
func TestClusterAccountingInvariants(t *testing.T) {
	cfg := testConfig(t, 4, 2)
	tb, err := NewTokenBucket(3, 120, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Admission = tb
	trace := testTrace(t, cfg, 11, 4000, 2000, 1.2)
	res := MustRun(cfg, trace)

	var arrived, admitted, admitDropped, served, dispatchDropped uint64
	for _, cs := range res.PerClass {
		if cs.Arrived != cs.Admitted+cs.AdmitDropped {
			t.Errorf("class %d: arrived %d != admitted %d + admit-dropped %d",
				cs.Class, cs.Arrived, cs.Admitted, cs.AdmitDropped)
		}
		if cs.Admitted != cs.Served+cs.DispatchDropped {
			t.Errorf("class %d: admitted %d != served %d + dispatch-dropped %d",
				cs.Class, cs.Admitted, cs.Served, cs.DispatchDropped)
		}
		if cs.Latency.Count() != cs.Served {
			t.Errorf("class %d: %d latency observations for %d served",
				cs.Class, cs.Latency.Count(), cs.Served)
		}
		arrived += cs.Arrived
		admitted += cs.Admitted
		admitDropped += cs.AdmitDropped
		served += cs.Served
		dispatchDropped += cs.DispatchDropped
	}
	if arrived != uint64(len(trace)) {
		t.Errorf("classes saw %d arrivals, trace has %d", arrived, len(trace))
	}
	if admitDropped == 0 {
		t.Error("token bucket at 120 req/s per class against this load never rejected — test is not exercising admission")
	}

	var routed, nodeServed, nodeDropped uint64
	for _, ns := range res.PerNode {
		routed += ns.Routed
		nodeServed += ns.Served
		nodeDropped += ns.Dropped
	}
	if routed != admitted {
		t.Errorf("nodes saw %d routed, classes admitted %d", routed, admitted)
	}
	if nodeServed != served || nodeDropped != dispatchDropped {
		t.Errorf("node outcomes (%d served, %d dropped) disagree with class outcomes (%d, %d)",
			nodeServed, nodeDropped, served, dispatchDropped)
	}

	var diskServed uint64
	for _, col := range res.PerDisk {
		diskServed += col.Served
	}
	if diskServed != served {
		t.Errorf("disks served %d, classes say %d", diskServed, served)
	}

	var tenantArrived, tenantServed uint64
	for _, ts := range res.Tenants {
		tenantArrived += ts.Arrived
		tenantServed += ts.Served
	}
	if tenantArrived != arrived || tenantServed != served {
		t.Errorf("tenant ledger (%d arrived, %d served) disagrees with class ledger (%d, %d)",
			tenantArrived, tenantServed, arrived, served)
	}
}

// Without DropLate every late start is served: the classes' Late and the
// member collectors' Late must agree, no class can be late more often than
// it was served, and every node's row must be its member disks' collector
// sums.
func TestClusterLateAndNodeLedgers(t *testing.T) {
	cfg := testConfig(t, 2, 2)
	cfg.DropLate = false
	cfg.Router = LeastLoaded{}
	tb, err := NewTokenBucket(3, 300, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Admission = tb
	res := MustRun(cfg, testTrace(t, cfg, 9, 3000, 1500, 1.2))
	var rejected uint64
	for _, cs := range res.PerClass {
		rejected += cs.AdmitDropped
	}
	if rejected == 0 {
		t.Error("the token bucket rejected nothing: the admission counters are untested")
	}

	var classLate, diskLate uint64
	for _, cs := range res.PerClass {
		if cs.Late > cs.Served {
			t.Errorf("class %d: %d late of %d served", cs.Class, cs.Late, cs.Served)
		}
		classLate += cs.Late
	}
	for _, col := range res.PerDisk {
		diskLate += col.Late
	}
	if classLate == 0 || classLate != diskLate {
		t.Errorf("late starts: classes %d, disks %d; want equal and nonzero", classLate, diskLate)
	}

	dpn := cfg.DisksPerNode
	for n, ns := range res.PerNode {
		want := NodeStats{Node: n, HeadTravel: ns.HeadTravel}
		for _, col := range res.PerDisk[n*dpn : (n+1)*dpn] {
			want.Routed += col.Arrived
			want.Served += col.Served
			want.Dropped += col.Dropped
			want.SeekTime += col.SeekTime
			want.BusyTime += col.ServiceTime
		}
		if ns != want {
			t.Errorf("node %d: %+v, members sum to %+v", n, ns, want)
		}
	}
}

// Identical configurations must replay identically: scalar ledgers,
// makespan and latency percentiles.
func TestClusterDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := testConfig(t, 3, 2)
		cfg.Router = &RoundRobin{}
		return MustRun(cfg, testTrace(t, cfg, 5, 2000, 3000, 1.0))
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %d vs %d", a.Makespan, b.Makespan)
	}
	for c := range a.PerClass {
		x, y := a.PerClass[c], b.PerClass[c]
		if x.Served != y.Served || x.DispatchDropped != y.DispatchDropped {
			t.Fatalf("class %d outcomes differ", c)
		}
		qx := x.Latency.Quantiles(0.5, 0.99)
		qy := y.Latency.Quantiles(0.5, 0.99)
		if qx[0] != qy[0] || qx[1] != qy[1] {
			t.Fatalf("class %d latency percentiles differ", c)
		}
	}
	if a.Jain() != b.Jain() {
		t.Fatalf("fairness differs: %v vs %v", a.Jain(), b.Jain())
	}
}

// Round-robin must spread admitted requests evenly; affinity must send
// every request to the node owning its block range.
func TestClusterRoutingPlacement(t *testing.T) {
	cfg := testConfig(t, 4, 2)
	trace := testTrace(t, cfg, 9, 2000, 4000, 0.5)

	rrCfg := cfg
	rrCfg.Router = &RoundRobin{}
	res := MustRun(rrCfg, trace)
	var lo, hi uint64 = ^uint64(0), 0
	for _, ns := range res.PerNode {
		if ns.Routed < lo {
			lo = ns.Routed
		}
		if ns.Routed > hi {
			hi = ns.Routed
		}
	}
	if hi-lo > 1 {
		t.Errorf("round-robin spread %d..%d across nodes, want within 1", lo, hi)
	}

	afCfg := cfg
	afCfg.Router = Affinity{}
	blocksPerNode := cfg.DisksPerNode * cfg.Disk.Cylinders
	want := make([]uint64, cfg.Nodes)
	for _, r := range trace {
		n := r.Cylinder / blocksPerNode
		if n >= cfg.Nodes {
			n = cfg.Nodes - 1
		}
		want[n]++
	}
	res = MustRun(afCfg, trace)
	for n, ns := range res.PerNode {
		if ns.Routed != want[n] {
			t.Errorf("affinity routed %d to node %d, block ownership says %d", ns.Routed, n, want[n])
		}
	}
}

// Direct router unit behavior on fabricated nodes.
func TestRouterUnitBehavior(t *testing.T) {
	mkNode := func(id, queued int) *Node {
		st := &sim.Station{ID: id, Sched: sched.NewFCFS()}
		for i := 0; i < queued; i++ {
			st.Sched.Add(&core.Request{ID: uint64(i + 1), Cylinder: i}, 0, 0)
		}
		return &Node{ID: id, Blocks: 100, stations: []*sim.Station{st}}
	}
	nodes := []*Node{mkNode(0, 3), mkNode(1, 1), mkNode(2, 1)}

	var rr RoundRobin
	for i := 0; i < 6; i++ {
		if got := rr.Route(nil, nodes, 0); got != i%3 {
			t.Fatalf("round-robin pick %d = node %d, want %d", i, got, i%3)
		}
	}
	// Least-loaded: nodes 1 and 2 tie at depth 1; lowest index wins.
	if got := (LeastLoaded{}).Route(nil, nodes, 0); got != 1 {
		t.Errorf("least-loaded picked node %d, want 1 (shallowest, lowest-index tie-break)", got)
	}
	for _, tc := range []struct{ block, want int }{
		{0, 0}, {99, 0}, {100, 1}, {250, 2}, {299, 2}, {1000, 2}, {-5, 0},
	} {
		if got := (Affinity{}).Route(&core.Request{Cylinder: tc.block}, nodes, 0); got != tc.want {
			t.Errorf("affinity(block %d) = node %d, want %d", tc.block, got, tc.want)
		}
	}
}

func TestNewRouterAndAdmitterNames(t *testing.T) {
	for name, want := range map[string]string{
		"rr": "rr", "round-robin": "rr",
		"least": "least", "least-loaded": "least",
		"affinity": "affinity",
	} {
		r, err := NewRouter(name)
		if err != nil || r.Name() != want {
			t.Errorf("NewRouter(%q) = %v, %v", name, r, err)
		}
	}
	if _, err := NewRouter("nope"); err == nil {
		t.Error("NewRouter accepted an unknown policy")
	}
	for name, want := range map[string]string{
		"always": "always", "token": "token", "token-bucket": "token",
	} {
		a, err := NewAdmitter(name, 2, 100, 10)
		if err != nil || a.Name() != want {
			t.Errorf("NewAdmitter(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := NewAdmitter("nope", 1, 1, 1); err == nil {
		t.Error("NewAdmitter accepted an unknown policy")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	good := testConfig(t, 2, 2)
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.DisksPerNode = 0 },
		func(c *Config) { c.Disk = nil },
		func(c *Config) { c.NewScheduler = nil },
		func(c *Config) { c.Classes = -1 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg, nil); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := Run(good, nil); err != nil {
		t.Errorf("empty-trace run on a good config failed: %v", err)
	}
}

// The Jain index must be 1 for perfectly even goodput and strictly lower
// when tenants' goodput diverges.
func TestJainFairness(t *testing.T) {
	even := &Result{Tenants: []TenantStats{
		{Arrived: 100, Served: 90}, {Arrived: 50, Served: 45}, {Arrived: 10, Served: 9},
	}}
	if j := even.Jain(); j < 0.999 || j > 1.001 {
		t.Errorf("even goodput ratios gave Jain %v, want 1", j)
	}
	skewed := &Result{Tenants: []TenantStats{
		{Arrived: 100, Served: 100}, {Arrived: 100, Served: 0}, {Arrived: 100, Served: 0},
	}}
	if j := skewed.Jain(); j > 0.34 || j < 0.32 {
		t.Errorf("one-of-three goodput gave Jain %v, want ~1/3", j)
	}
	if j := (&Result{}).Jain(); j != 1 {
		t.Errorf("no active tenants gave Jain %v, want 1 by convention", j)
	}
	one := &Result{Tenants: []TenantStats{{Arrived: 10, Served: 2}}}
	if j := one.Jain(); j != 1 {
		t.Errorf("single tenant gave Jain %v, want 1 by convention", j)
	}
}

// Under skewed tenant load, least-loaded routing must not lose to
// round-robin on overall goodput — the divergence the cluster experiment
// plots — and the per-class latency histograms must be populated and
// ordered (p50 <= p99).
func TestClusterPolicyDivergenceUnderSkew(t *testing.T) {
	base := testConfig(t, 4, 1)
	trace := testTrace(t, base, 42, 6000, 1100, 1.4)

	run := func(r Router) *Result {
		cfg := base
		cfg.Router = r
		return MustRun(cfg, trace)
	}
	rr := run(&RoundRobin{})
	ll := run(LeastLoaded{})
	var rrServed, llServed uint64
	for c := range rr.PerClass {
		rrServed += rr.PerClass[c].Served
		llServed += ll.PerClass[c].Served
	}
	if llServed < rrServed {
		t.Errorf("least-loaded served %d < round-robin's %d under skewed overload", llServed, rrServed)
	}
	for c, cs := range ll.PerClass {
		if cs.Served == 0 {
			continue
		}
		q := cs.Latency.Quantiles(0.5, 0.99)
		if q[0] == 0 || q[0] > q[1] {
			t.Errorf("class %d latency percentiles malformed: p50=%d p99=%d", c, q[0], q[1])
		}
	}
}

// LossRate ties out against the raw ledger; a class with no arrivals
// reports zero loss rather than dividing by zero.
func TestClassLossRate(t *testing.T) {
	cfg := testConfig(t, 2, 2)
	tb, err := NewTokenBucket(3, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Admission = tb
	res := MustRun(cfg, testTrace(t, cfg, 3, 2000, 2000, 1.0))
	for _, cs := range res.PerClass {
		want := float64(cs.AdmitDropped+cs.DispatchDropped+cs.Late) / float64(cs.Arrived)
		if got := cs.LossRate(); got != want {
			t.Errorf("class %d LossRate = %v, want %v", cs.Class, got, want)
		}
	}
	if (&ClassStats{}).LossRate() != 0 {
		t.Error("empty class reported nonzero loss")
	}
}

// A trace generated for one logical block space must map onto member
// disks without ever leaving the modeled cylinder range: the per-disk
// collectors account every admitted request exactly once.
func TestClusterBlockMapping(t *testing.T) {
	cfg := testConfig(t, 3, 3)
	trace := testTrace(t, cfg, 17, 1500, 4000, 0.0)
	res := MustRun(cfg, trace)
	var perDiskArrived uint64
	for _, col := range res.PerDisk {
		perDiskArrived += col.Arrived
	}
	var admitted uint64
	for _, cs := range res.PerClass {
		admitted += cs.Admitted
	}
	if perDiskArrived != admitted {
		t.Errorf("disks saw %d physical arrivals for %d admitted requests", perDiskArrived, admitted)
	}
}
