package main

import (
	"fmt"
	"math"
	"time"

	"sfcsched/internal/cluster"
	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// sim-fleet uses the engine the other way round: N stations, no Reuse, and
// a logical→physical fan-out above them. Two arms of equal request count:
//
//   - array: sim.RunArray on the Table 1 4+1 RAID-5 with 64 KB blocks, fed
//     the §6 editing streams (80 users at 1.5 Mbps, 20 % writers, each write
//     a read-modify-write of 4 physical ops on 2 disks), SCAN-EDF per disk.
//   - cluster: cluster.Run on 4 nodes × 2 disks behind the least-loaded
//     router and a 3-class token bucket, fed an open workload of 8
//     Zipf(1.2) tenants pinned to block zones.
//
// Reads beside read-modify-writes, routing and admission, and cluster.Run's
// one heap request per admitted arrival: the workload ROADMAP items 1 and
// 3 are judged on.
const (
	fleetRequests = 40_000 // per arm
	// fleetLatencyRuns is the number of one-request cells timed for
	// rtt_p50_us; at ~7 µs each a fifth of them spans >100 ms.
	fleetLatencyRuns = 100_000

	arrayDisks   = 5
	arrayBlock   = 64 << 10
	streamUsers  = 80
	streamRate   = 1_500_000 // bits/s
	streamWrites = 0.2
	streamBurst  = 3

	clusterNodes        = 4
	clusterDisksPerNode = 2
	clusterInterarrival = 1_500 // µs
	clusterTenants      = 8
	clusterSkew         = 1.2
	clusterClasses      = 3
	tokenRate           = 200 // admissions/s per class
	tokenBurst          = 30
	scanEDFQuantum      = 50_000
)

type simFleet struct {
	p      params
	disk   *disk.Model
	array  *disk.RAID5
	arenas [2]workload.Arena
	// traces[0] is the array arm's logical trace, traces[1] the cluster's.
	traces [2][]*core.Request
	sink   cluster.Metrics

	warm []digest
	mod  model
	c    checks
}

func (w *simFleet) requests() int { return w.p.scaled(fleetRequests) }

func (w *simFleet) setup(tr *tracer) error {
	w.disk = tableOneDisk()
	var err error
	if w.array, err = disk.NewRAID5(arrayDisks, arrayBlock, w.disk); err != nil {
		return err
	}
	n := w.requests()
	mix, err := w.pickStreams(n)
	if err != nil {
		return err
	}
	gen := tr.begin("workload.streams.arena")
	streams, err := mix.GenerateArena(&w.arenas[0])
	tr.end(gen)
	if err != nil {
		return err
	}
	if len(streams) > n {
		streams = streams[:n]
	}
	w.traces[0] = streams
	gen = tr.begin("workload.open.arena")
	w.traces[1], err = workload.Open{
		Seed: w.p.seed, Count: len(streams), MeanInterarrival: clusterInterarrival,
		Dims: 1, Levels: 4,
		DeadlineMin: 50_000, DeadlineMax: 800_000,
		Cylinders: clusterNodes * clusterDisksPerNode * w.disk.Cylinders, Size: 64 << 10,
		Tenants: clusterTenants, TenantSkew: clusterSkew,
		Classes: clusterClasses, TenantZones: true,
	}.GenerateArena(&w.arenas[1])
	tr.end(gen)
	if err != nil {
		return err
	}
	rep, err := w.repeat(nil)
	if err != nil {
		return err
	}
	w.warm = rep.digests
	return nil
}

// streams is the §6 editing workload sized to at least n requests. Streams
// emits users × rate / block-bits requests per second for a duration, so
// the duration is chosen a little past n and the caller cuts the trace.
func (w *simFleet) streams(n int) workload.Streams {
	perSec := float64(streamUsers) * streamRate / float64(arrayBlock*8)
	return workload.Streams{
		Seed: w.p.seed, Users: streamUsers,
		Duration: int64(float64(n)/perSec*1e6*1.05) + 2_000_000,
		BitRate:  streamRate, BlockSize: arrayBlock, Levels: prioLevels,
		DeadlineMin: 750_000, DeadlineMax: 1_500_000,
		Cylinders: int(w.array.MaxBlocks() / 4), WriteFrac: streamWrites, Burst: streamBurst,
	}
}

// pickStreams turns the run's seed into the stream mix the array arm is fed.
// Streams flips a 20 % coin per user, so among 80 users the writers number
// anywhere from 10 to 22 depending on the seed, and with them the physical
// operations per logical request (a write costs four), the loss and the
// host time per request — a ±20 % swing that says nothing about the code.
// The mix is therefore conditioned on its own nominal parameter: sub-seeds
// derived from the seed are tried in order until exactly
// streamUsers × streamWrites users write. A one-period probe trace carries
// exactly one burst per user, which is enough to count them.
func (w *simFleet) pickStreams(n int) (workload.Streams, error) {
	wantWriters := int(math.Round(streamUsers * streamWrites))
	mix := w.streams(n)
	probe := mix
	probe.Duration = int64(float64(mix.BlockSize*8)/mix.BitRate*1e6) * streamBurst
	for k := uint64(0); k < 1024; k++ {
		probe.Seed = w.p.seed<<10 | k
		trace, err := probe.GenerateArena(&w.arenas[0])
		if err != nil {
			return mix, err
		}
		writes := 0
		for _, r := range trace {
			if r.Write {
				writes++
			}
		}
		if len(trace) == streamUsers*streamBurst && writes == wantWriters*streamBurst {
			mix.Seed = probe.Seed
			return mix, nil
		}
	}
	return mix, fmt.Errorf("sim-fleet: no sub-seed of %d gives %d writers among %d streams", w.p.seed, wantWriters, streamUsers)
}

func (w *simFleet) arrayConfig(tr *tracer) sim.ArrayConfig {
	cfg := sim.ArrayConfig{
		Array:   w.array,
		Options: sim.Options{DropLate: true, Dims: 1, Levels: prioLevels, Seed: w.p.seed},
	}
	cfg.NewScheduler = func(int) (sched.Scheduler, error) { return sched.NewSCANEDF(scanEDFQuantum), nil }
	if tr != nil {
		factory := tr.rec.id("sim.array.new_scheduler")
		cfg.NewScheduler = func(int) (sched.Scheduler, error) {
			i := tr.rec.begin(factory)
			s := tr.sched(sched.NewSCANEDF(scanEDFQuantum), "sim.array.sched", "sim.array.each")
			tr.rec.end(i)
			return s, nil
		}
	}
	return cfg
}

// clusterConfig builds a cell's configuration; routers and buckets are
// stateful, so every run gets fresh ones.
func (w *simFleet) clusterConfig(tr *tracer) cluster.Config {
	cfg := cluster.Config{
		Nodes: clusterNodes, DisksPerNode: clusterDisksPerNode, Disk: w.disk,
		DropLate: true, Seed: w.p.seed, Classes: clusterClasses, Metrics: &w.sink,
	}
	cfg.NewScheduler = func(int, int) (sched.Scheduler, error) { return sched.NewSCANEDF(scanEDFQuantum), nil }
	var router cluster.Router = cluster.LeastLoaded{}
	admit, err := cluster.NewTokenBucket(clusterClasses, tokenRate, tokenBurst)
	if err != nil {
		panic("bench: token bucket from constants: " + err.Error())
	}
	cfg.Router, cfg.Admission = router, admit
	if tr != nil {
		factory := tr.rec.id("cluster.new_scheduler")
		cfg.NewScheduler = func(int, int) (sched.Scheduler, error) {
			i := tr.rec.begin(factory)
			s := tr.sched(sched.NewSCANEDF(scanEDFQuantum), "cluster.sched", "cluster.each")
			tr.rec.end(i)
			return s, nil
		}
		cfg.Router = &tracedRouter{inner: router, rec: tr.rec, name: tr.rec.id("cluster.route.least")}
		cfg.Admission = &tracedAdmitter{inner: admit, rec: tr.rec, name: tr.rec.id("cluster.admit.token")}
	}
	return cfg
}

func (w *simFleet) reference() []digest { return w.warm }

func (w *simFleet) repeat(tr *tracer) (repetition, error) {
	return w.run(tr, w.traces[0], w.traces[1])
}

// run executes both arms and folds their ledgers into digests and, for
// full-size traces, the model figures.
func (w *simFleet) run(tr *tracer, streams, open []*core.Request) (repetition, error) {
	rep := repetition{}

	span := tr.begin("sim.run_array")
	t0 := time.Now()
	ar, err := sim.RunArray(w.arrayConfig(tr), streams)
	rep.host += time.Since(t0)
	tr.end(span)
	if err != nil {
		return rep, err
	}
	w.c.arrayConserved(ar, len(streams))
	ad := digest{Served: ar.Logical.Served, Dropped: ar.Logical.Dropped, Makespan: ar.Makespan}
	var seek int64
	var served uint64
	for _, col := range ar.PerDisk {
		ad.Late += col.Late
		ad.Inversions += col.TotalInversions()
		seek += col.SeekTime
		served += col.Served
	}
	ad.HeadTravel = seek // the array exposes seek time, not cylinders, per disk

	span = tr.begin("cluster.run")
	t0 = time.Now()
	cr, err := cluster.Run(w.clusterConfig(tr), open)
	rep.host += time.Since(t0)
	tr.end(span)
	if err != nil {
		return rep, err
	}
	w.c.clusterConserved(cr, len(open))
	cd := digest{Makespan: cr.Makespan}
	var admitDropped uint64
	for _, cs := range cr.PerClass {
		cd.Served += cs.Served
		cd.Dropped += cs.DispatchDropped
		cd.Late += cs.Late
		admitDropped += cs.AdmitDropped
	}
	// Admission drops are part of the outcome; fold them into the order
	// slot, which a fleet run has no use for.
	cd.Order = admitDropped
	for _, col := range cr.PerDisk {
		cd.Inversions += col.TotalInversions()
		seek += col.SeekTime
		served += col.Served
	}
	for _, ns := range cr.PerNode {
		cd.HeadTravel += ns.HeadTravel
	}

	rep.ops = int64(len(streams) + len(open))
	rep.digests = []digest{ad, cd}
	if len(streams) > 1 {
		lost := ad.Dropped + cd.Dropped + cd.Late + admitDropped
		w.mod = model{
			lossPct:               100 * float64(lost) / float64(rep.ops),
			seekMsPerServed:       float64(seek) / 1e3 / float64(served),
			inversionsPerDispatch: float64(ad.Inversions+cd.Inversions) / float64(served),
		}
	}
	return rep, nil
}

// roundTrips times the smallest fleet cell: one logical request through a
// freshly built array and one through a freshly built cluster — the
// per-run construction of 5 + 8 stations, schedulers and collectors that
// neither path can recycle.
func (w *simFleet) roundTrips(tr *tracer, parts int) ([]float64, error) {
	n := max(w.p.scaled(fleetLatencyRuns)/parts, 1)
	// The array's request is the trace's first read: a write would fan out
	// into four physical operations, and whether the first request happens
	// to be one depends on the seed.
	first := 0
	for i, r := range w.traces[0] {
		if !r.Write {
			first = i
			break
		}
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := w.run(nil, w.traces[0][first:first+1], w.traces[1][:1]); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return out, nil
}

func (w *simFleet) model() model { return w.mod }

func (w *simFleet) verify(c *checks) {
	c.merge(&w.c)
}

func (w *simFleet) traced(tr *tracer, stats map[string]spanStat, cost spanCost, out metricSet) {
	reps := float64(stats["cluster.run"].Count)
	if reps == 0 {
		return
	}
	out.set("cluster.route_ns.least", perCall(stats, cost, "cluster.route.least"), "ns")
	out.set("cluster.admit_ns.token", perCall(stats, cost, "cluster.admit.token"), "ns")
	// What the two run paths spend outside their schedulers, routers and
	// admitters: mapping, bookkeeping, engine and collectors.
	out.set("cluster.run.self_ns_per_req", stats["cluster.run"].netSelf(cost)/(float64(len(w.traces[1]))*reps), "ns")
	out.set("sim.array.self_ns_per_logical", stats["sim.run_array"].netSelf(cost)/(float64(len(w.traces[0]))*reps), "ns")
}

func (w *simFleet) close() {}
