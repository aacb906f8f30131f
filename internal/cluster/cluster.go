// Package cluster simulates a multi-array storage cluster: N striped
// arrays (nodes) behind a pluggable routing policy and per-class
// admission control, every request tagged with a tenant and an SLO
// class. It is the fleet-level layer above sim.Engine — the "scalable"
// half of Scalable Multimedia Disk Scheduling — where policy choice
// shows up as per-class deadline losses, latency percentiles and
// cross-tenant fairness rather than per-disk seek time.
//
// # Topology and addressing
//
// The cluster is one sim.Engine whose stations are the member disks of
// every node: station ID = node·DisksPerNode + member, so at each event
// time idle disks dispatch in (node, member) order and the engine's
// (time, seq) determinism carries over unchanged. Requests address a
// flat logical block space of Nodes × DisksPerNode × Cylinders blocks
// (workload.Open with Cylinders = MaxBlocks). Admission and routing
// happen in the engine's delivery callback — the router hook on enqueue
// — then the block maps onto the routed node's stripe: member =
// block % DisksPerNode, cylinder = block / DisksPerNode. One physical
// op serves one request; RAID-5 parity fan-out stays in sim.RunArray.
//
// # Determinism
//
// Routing reads queue depths at the arrival instant, which the engine
// orders deterministically; admission is exact integer token
// arithmetic; stations dispatch in station-index order at each event
// time. Identical configurations therefore replay byte-identically,
// including across runner.Map worker counts — pinned by the cross-worker
// CSV tests and FuzzClusterDeterminism.
package cluster

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/metrics"
	"sfcsched/internal/obs"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
)

// Config describes one cluster run.
type Config struct {
	// Nodes is the number of arrays; DisksPerNode the striped member
	// disks per array (1 = a cluster of single disks).
	Nodes        int
	DisksPerNode int
	// Disk models every member disk. Required.
	Disk *disk.Model
	// NewScheduler builds the queue discipline of member disk member of
	// node node. Required.
	NewScheduler func(node, member int) (sched.Scheduler, error)
	// Router picks a node per admitted request; nil defaults to
	// round-robin.
	Router Router
	// Admission rules on each arrival; nil defaults to AlwaysAdmit.
	Admission Admitter
	// Classes is the number of SLO classes accounted. Zero infers the
	// highest class present in the trace.
	Classes int

	// Seed is unused: every service is charged the average rotational
	// latency. It stays until the frozen benchmark, which sets it, is next
	// changed.
	Seed     uint64
	DropLate bool
	// Dims and Levels size the per-disk collectors; zero infers from the
	// trace.
	Dims   int
	Levels int
	// Trace, when non-nil, receives every physical dispatch with DiskID
	// set to the global member index (node·DisksPerNode + member).
	Trace func(sim.TraceEvent)
	// Telemetry, when non-nil, samples every member station.
	Telemetry *sim.Telemetry
	// Metrics is bench-pinned and counts nothing (see obsmetrics.go).
	Metrics *Metrics
}

// MaxBlocks returns the cluster's logical block capacity. Workloads
// address blocks in [0, MaxBlocks); out-of-range blocks clamp.
func (c Config) MaxBlocks() int {
	return c.Nodes * c.DisksPerNode * c.Disk.Cylinders
}

func (c Config) validate() error {
	if c.Nodes < 1 || c.DisksPerNode < 1 {
		return fmt.Errorf("cluster: need Nodes >= 1 and DisksPerNode >= 1, got %d×%d", c.Nodes, c.DisksPerNode)
	}
	if c.Disk == nil {
		return fmt.Errorf("cluster: Disk model is required")
	}
	if c.NewScheduler == nil {
		return fmt.Errorf("cluster: NewScheduler is required")
	}
	if c.Classes < 0 {
		return fmt.Errorf("cluster: Classes must be non-negative, got %d", c.Classes)
	}
	return nil
}

// ClassStats is the per-SLO-class ledger of one run. Every arrival lands
// in exactly one of AdmitDropped, DispatchDropped or Served (+Late marks
// served-but-late starts when DropLate is off).
type ClassStats struct {
	Class int
	// Arrived counts arrivals of this class; Admitted those past
	// admission control.
	Arrived  uint64
	Admitted uint64
	// AdmitDropped counts admission rejections; DispatchDropped deadline
	// drops at dispatch time (DropLate).
	AdmitDropped    uint64
	DispatchDropped uint64
	// Served counts completions; Late services that started past their
	// deadline (only without DropLate).
	Served uint64
	Late   uint64
	// Latency is the completion-latency distribution (completion −
	// arrival, µs) of served requests. Percentiles via Quantiles.
	Latency obs.Histogram
	// LatencySum is the exact sum of those latencies, µs, for mean
	// latency without bucketing error: LatencySum / Served.
	LatencySum int64
}

// LossRate returns the fraction of this class's arrivals that missed
// their SLO: rejected at admission, dropped at dispatch, or started
// late.
func (c *ClassStats) LossRate() float64 {
	if c.Arrived == 0 {
		return 0
	}
	return float64(c.AdmitDropped+c.DispatchDropped+c.Late) / float64(c.Arrived)
}

// NodeStats aggregates one node's activity over its member disks.
type NodeStats struct {
	Node int
	// Routed counts requests the router sent here; Served and Dropped
	// their dispatch outcomes. All three sum the member disks' collectors.
	Routed  uint64
	Served  uint64
	Dropped uint64
	// SeekTime and BusyTime sum the member disks' seek and total service
	// time, µs. HeadTravel sums cylinders traveled.
	SeekTime   int64
	BusyTime   int64
	HeadTravel int64
}

// TenantStats is one tenant's goodput ledger.
type TenantStats struct {
	Tenant   int
	Arrived  uint64
	Admitted uint64
	Served   uint64
}

// Result is the outcome of a cluster run.
type Result struct {
	// PerClass has one entry per SLO class, indexed by class.
	PerClass []*ClassStats
	// PerNode has one entry per node, indexed by node ID.
	PerNode []NodeStats
	// Tenants has one entry per tenant ID in [0, maxTenant]; tenants
	// that never arrived have zero ledgers.
	Tenants []TenantStats
	// PerDisk holds each member disk's physical collector, indexed by
	// global member index.
	PerDisk []*metrics.Collector
	// Makespan is the completion time of the run, µs.
	Makespan int64
	// Router and Admission echo the policies' names.
	Router    string
	Admission string
}

// Jain returns the Jain fairness index over per-tenant goodput ratios
// (served/arrived): (Σx)² / (n·Σx²), 1 when every tenant with traffic
// got the same fraction of its requests served, approaching 1/n when one
// tenant took everything. Runs with fewer than two active tenants score
// 1 by convention.
func (r *Result) Jain() float64 {
	var sum, sumSq float64
	n := 0
	for _, t := range r.Tenants {
		if t.Arrived == 0 {
			continue
		}
		x := float64(t.Served) / float64(t.Arrived)
		sum += x
		sumSq += x * x
		n++
	}
	if n < 2 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// Run simulates trace (sorted by arrival time) on the cluster. The trace
// is read-only: physical ops are copies carrying the mapped member
// cylinder, so one generated trace can back any number of cells. The
// copies are recycled: one returns to a free list when it is served or
// dropped, so a warm run allocates nothing per request.
func Run(cfg Config, trace []*core.Request) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	router := cfg.Router
	if router == nil {
		router = &RoundRobin{}
	}
	admit := cfg.Admission
	if admit == nil {
		admit = AlwaysAdmit{}
	}
	dims, levels := sim.InferShape(cfg.Dims, cfg.Levels, trace)
	classes, maxTenant := inferLedgers(cfg.Classes, trace)

	dpn := cfg.DisksPerNode
	blocksPerNode := dpn * cfg.Disk.Cylinders
	nDisks := cfg.Nodes * dpn
	stations := make([]*sim.Station, nDisks)
	perDisk := make([]*metrics.Collector, nDisks)
	nodes := make([]*Node, cfg.Nodes)
	for n := range nodes {
		nodes[n] = &Node{ID: n, Blocks: blocksPerNode, stations: make([]*sim.Station, dpn)}
		for d := 0; d < dpn; d++ {
			s, err := cfg.NewScheduler(n, d)
			if err != nil {
				return nil, fmt.Errorf("cluster: node %d disk %d: %w", n, d, err)
			}
			id := n*dpn + d
			perDisk[id] = metrics.NewCollector(dims, levels)
			stations[id] = &sim.Station{Sched: s, Disk: cfg.Disk, Col: perDisk[id]}
			nodes[n].stations[d] = stations[id]
		}
	}

	res := &Result{
		PerClass:  make([]*ClassStats, classes),
		PerNode:   make([]NodeStats, cfg.Nodes),
		Tenants:   make([]TenantStats, maxTenant+1),
		PerDisk:   perDisk,
		Router:    router.Name(),
		Admission: admit.Name(),
	}
	for c := range res.PerClass {
		res.PerClass[c] = &ClassStats{Class: c}
	}
	for n := range res.PerNode {
		res.PerNode[n].Node = n
	}
	for t := range res.Tenants {
		res.Tenants[t].Tenant = t
	}

	// The cluster's run is assembled where every topology's is; its own
	// fields are the subset of sim.Options it supports.
	var eng sim.Engine
	var free []*core.Request
	if err := eng.Setup(sim.Options{
		DropLate: cfg.DropLate, Trace: cfg.Trace, Telemetry: cfg.Telemetry,
	}, stations, false); err != nil {
		return nil, err
	}
	eng.OnServed = func(_ *sim.Station, r *core.Request, now int64, late bool) {
		cs := res.PerClass[r.Class]
		cs.Served++
		lat := now - r.Arrival
		if lat < 0 {
			lat = 0
		}
		cs.Latency.Observe(uint64(lat))
		cs.LatencySum += lat
		res.Tenants[r.Tenant].Served++
		if late {
			cs.Late++
		}
		free = append(free, r)
	}
	eng.OnDropped = func(_ *sim.Station, r *core.Request, _ int64) {
		res.PerClass[r.Class].DispatchDropped++
		free = append(free, r)
	}

	res.Makespan = eng.Run(trace, func(r *core.Request, now int64) {
		class := min(max(r.Class, 0), classes-1)
		cs := res.PerClass[class]
		cs.Arrived++
		tenant := min(max(r.Tenant, 0), len(res.Tenants)-1)
		ten := &res.Tenants[tenant]
		ten.Arrived++
		if !admit.Admit(class, now) {
			cs.AdmitDropped++
			return
		}
		cs.Admitted++
		ten.Admitted++
		n := min(max(router.Route(r, nodes, now), 0), cfg.Nodes-1)

		block := min(max(r.Cylinder, 0), cfg.MaxBlocks()-1) % blocksPerNode
		st := stations[n*dpn+block%dpn]
		var phys *core.Request
		if k := len(free); k > 0 {
			phys, free = free[k-1], free[:k-1]
		} else {
			phys = new(core.Request)
		}
		*phys = core.Request{
			ID: r.ID, Priorities: r.Priorities, Deadline: r.Deadline,
			Cylinder: block / dpn, Size: r.Size, Arrival: r.Arrival,
			Write: r.Write, Value: r.Value,
			Tenant: tenant, Class: class,
		}
		st.Col.OnArrival(phys)
		st.Enqueue(phys, now)
	})

	for i, st := range stations {
		ns := &res.PerNode[i/dpn]
		ns.Routed += st.Col.Arrived
		ns.Served += st.Col.Served
		ns.Dropped += st.Col.Dropped
		ns.SeekTime += st.Col.SeekTime
		ns.BusyTime += st.Col.ServiceTime
		ns.HeadTravel += st.HeadTravel()
	}
	return res, nil
}

// MustRun is Run for static configurations.
func MustRun(cfg Config, trace []*core.Request) *Result {
	res, err := Run(cfg, trace)
	if err != nil {
		panic(err)
	}
	return res
}

// inferLedgers fills a zero class count from the trace and finds the
// highest tenant ID, so per-class and per-tenant ledgers are sized before
// the run starts.
func inferLedgers(classes int, trace []*core.Request) (int, int) {
	maxClass, maxTenant := 0, 0
	for _, r := range trace {
		maxClass = max(maxClass, r.Class)
		maxTenant = max(maxTenant, r.Tenant)
	}
	if classes == 0 {
		classes = maxClass + 1
	}
	return classes, maxTenant
}
