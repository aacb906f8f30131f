package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"sfcsched/internal/cluster"
	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/metrics"
	"sfcsched/internal/obs"
	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/serve"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// The layer pass: tight loops over one layer's public functions, one
// number per loop. It owes nothing to any workload's proportions — it says
// what a call costs, the traced pass says how often it is made.

// layerSink keeps results alive so the compiler cannot drop a measured call.
var layerSink uint64

// layerBatches is how many timed batches each loop runs; the reported value
// is their median.
const layerBatches = 5

// layerTimer times loops to a per-batch budget.
type layerTimer struct {
	budget time.Duration
}

// perOp grows n until fn(n) fills the budget, then reports the median
// ns per operation over layerBatches batches of that size.
func (lt layerTimer) perOp(fn func(n int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		fn(n)
		if el := time.Since(t0); el >= lt.budget || n >= 1<<26 {
			break
		}
		n *= 4
	}
	v := make([]float64, layerBatches)
	for i := range v {
		t0 := time.Now()
		fn(n)
		v[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(v)
}

// fixed reports the median ns per operation of fn, which performs ops
// operations per call and cannot be resized.
func (lt layerTimer) fixed(ops int, fn func()) float64 {
	v := make([]float64, layerBatches)
	for i := range v {
		t0 := time.Now()
		fn()
		v[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(v)
}

// mallocs returns the heap allocations and bytes fn performs.
func mallocs(fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// fifo is the cheapest possible queue discipline, used to time the bare
// engine: a slice consumed from the front.
type fifo struct {
	q    []*core.Request
	head int
}

func (f *fifo) Name() string                        { return "fifo" }
func (f *fifo) Add(r *core.Request, _ int64, _ int) { f.q = append(f.q, r) }
func (f *fifo) Len() int                            { return len(f.q) - f.head }
func (f *fifo) Next(int64, int) *core.Request {
	if f.head == len(f.q) {
		return nil
	}
	r := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return r
}
func (f *fifo) Each(visit func(*core.Request)) {
	for _, r := range f.q[f.head:] {
		visit(r)
	}
}

// layerPassRun measures every layer-pass metric.
func layerPassRun(p params) (*result, error) {
	res := &result{Pass: layerPass, Metrics: metricSet{}}
	var c checks
	budget := time.Duration(float64(20*time.Millisecond) * p.scale)
	if budget < 100*time.Microsecond {
		budget = 100 * time.Microsecond
	}
	l := &layers{p: p, lt: layerTimer{budget: budget}, out: res.Metrics, disk: tableOneDisk()}
	var err error
	if l.trace3, err = openTrace(p.seed, 4096, l.disk.Cylinders).Generate(); err != nil {
		return nil, err
	}
	o12 := openTrace(p.seed, 4096, l.disk.Cylinders)
	o12.Dims = 12
	if l.trace12, err = o12.Generate(); err != nil {
		return nil, err
	}
	for _, step := range []func() error{
		l.sfc, l.core, l.ingress, l.diskLayer, l.metricsLayer, l.engine,
		l.observers, l.fleet, l.workloads, l.serve, l.shared,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	res.Attempted = int64(len(res.Metrics))
	if miss := res.Metrics.missing(perLayerNames(layerPass)); len(miss) > 0 {
		c.fail("layer pass did not produce %v", miss)
	}
	res.finish(&c)
	return res, nil
}

type layers struct {
	p    params
	lt   layerTimer
	out  metricSet
	disk *disk.Model
	// trace3 and trace12 are 4096 generated requests with 3 and 12
	// priority dimensions: varied inputs for per-call loops.
	trace3, trace12 []*core.Request
}

func (l *layers) ns(name string, v float64) { l.out.set(name, v, "ns") }

func (l *layers) sfc() error {
	hil := sfc.MustNew("hilbert", prioDims, prioLevels)
	lut := sfc.Accelerate(hil)
	if _, ok := lut.(*sfc.LUT); !ok {
		return fmt.Errorf("hilbert %d×%d is not LUT-accelerated", prioDims, prioLevels)
	}
	scratch := make([]uint32, hil.ScratchLen())
	pt := make(sfc.Point, prioDims)
	fill := func(i int) { pt[0], pt[1], pt[2] = uint32(i)&7, uint32(i>>3)&7, uint32(i>>6)&7 }
	l.ns("sfc.index_checked_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			fill(i)
			layerSink += hil.Index(pt)
		}
	}))
	l.ns("sfc.index_fast_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			fill(i)
			layerSink += hil.IndexFast(pt, scratch)
		}
	}))
	l.ns("sfc.index_lut_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			fill(i)
			layerSink += lut.IndexFast(pt, nil)
		}
	}))
	big := sfc.MustNew("hilbert", 12, prioLevels)
	bscratch := make([]uint32, big.ScratchLen())
	bp := make(sfc.Point, 12)
	l.ns("sfc.index_fast_d12_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			for d := range bp {
				bp[d] = uint32(i*(d+7)) & 7
			}
			layerSink += big.IndexFast(bp, bscratch)
		}
	}))
	return nil
}

func (l *layers) core() error {
	for _, v := range []struct {
		name  string
		dims  int
		trace []*core.Request
	}{{"core.encapsulate_ns", prioDims, l.trace3}, {"core.encapsulate_d12_ns", 12, l.trace12}} {
		ecfg, err := cascadeConfig(v.dims, l.disk.Cylinders)
		if err != nil {
			return err
		}
		enc, err := core.NewEncapsulator(ecfg)
		if err != nil {
			return err
		}
		tr := v.trace
		l.ns(v.name, l.lt.perOp(func(n int) {
			for i := 0; i < n; i++ {
				r := tr[i&4095]
				layerSink += enc.ValueAt(r, r.Arrival, i%3832, uint64(i))
			}
		}))
	}

	// One Add and one Next over a standing queue of churnDepth, per
	// preemption mode, on raw values: the dispatcher without the cascade.
	const valueSpace = 1 << 20
	val := func(i int) uint64 { return uint64(i*2654435761) % valueSpace }
	for _, v := range []struct {
		name string
		cfg  core.DispatcherConfig
	}{
		{"core.dispatcher.add_next_ns.full", core.DispatcherConfig{Mode: core.FullyPreemptive}},
		{"core.dispatcher.add_next_ns.cond", core.DispatcherConfig{
			Mode: core.ConditionallyPreemptive, Window: valueSpace / 20, SP: true, ER: true, Expansion: 2}},
		{"core.dispatcher.add_next_ns.nonpre", core.DispatcherConfig{Mode: core.NonPreemptive}},
	} {
		d, err := core.NewDispatcher(v.cfg)
		if err != nil {
			return err
		}
		d.SetMetrics(&core.Metrics{})
		for i := 0; i < churnDepth; i++ {
			d.Add(l.trace3[i], val(i))
		}
		k := churnDepth
		l.ns(v.name, l.lt.perOp(func(n int) {
			for i := 0; i < n; i++ {
				d.Add(l.trace3[k&4095], val(k))
				d.Next()
				k++
			}
		}))
	}

	s, err := newCascade("addbatch", core.FullyPreemptive, prioDims, l.disk.Cylinders)
	if err != nil {
		return err
	}
	batch := l.trace3[:256]
	l.ns("core.scheduler.addbatch_ns_per_req", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			s.AddBatch(batch, int64(i), i%3832)
			for s.Next(int64(i), i%3832) != nil {
			}
		}
	})/float64(len(batch)))
	return nil
}

// ingress measures the concurrent front door: producers adding into a
// scheduler nobody drains, sharded against one mutex around the serial
// scheduler (the ROADMAP item 2 comparison), and the consumer's Next.
func (l *layers) ingress() error {
	perBatch := max(l.p.scaled(1<<16), 1024)
	ecfg, err := cascadeConfig(prioDims, l.disk.Cylinders)
	if err != nil {
		return err
	}
	// Each producer owns a disjoint ring so IDs spread over the shards.
	rings := make([][]core.Request, 2)
	for p := range rings {
		rings[p] = make([]core.Request, 1024)
		for j := range rings[p] {
			t := l.trace3[j]
			rings[p][j] = core.Request{
				ID: uint64(p)<<32 | uint64(j), Priorities: t.Priorities,
				Deadline: t.Deadline, Cylinder: t.Cylinder, Size: t.Size,
			}
		}
	}
	produce := func(producers int, add func(r *core.Request, now int64)) {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(ring []core.Request) {
				defer wg.Done()
				for i := 0; i < perBatch/producers; i++ {
					add(&ring[i&1023], int64(i))
				}
			}(rings[p])
		}
		wg.Wait()
	}
	newSharded := func() (*core.ShardedScheduler, error) {
		s, err := core.NewShardedScheduler("ingress", ecfg, 0)
		if err == nil {
			s.SetMetrics(&core.Metrics{})
		}
		return s, err
	}
	for _, v := range []struct {
		name      string
		producers int
	}{{"core.sharded.add_ns_p1", 1}, {"core.sharded.add_ns_p2", 2}} {
		var ferr error
		l.ns(v.name, l.lt.fixed(perBatch, func() {
			s, err := newSharded()
			if err != nil {
				ferr = err
				return
			}
			produce(v.producers, func(r *core.Request, now int64) { s.Add(r, now, 1200) })
		}))
		if ferr != nil {
			return ferr
		}
	}
	var ferr error
	var filled *core.ShardedScheduler
	v := make([]float64, layerBatches)
	for i := range v {
		if filled, ferr = newSharded(); ferr != nil {
			return ferr
		}
		produce(1, func(r *core.Request, now int64) { filled.Add(r, now, 1200) })
		t0 := time.Now()
		for filled.Next(0, 1200) != nil {
		}
		v[i] = float64(time.Since(t0).Nanoseconds()) / float64(perBatch)
	}
	l.ns("core.sharded.next_ns", median(v))

	l.ns("core.locked.add_ns_p2", l.lt.fixed(perBatch, func() {
		s, err := core.NewScheduler("locked", ecfg, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
		if err != nil {
			ferr = err
			return
		}
		s.SetMetrics(&core.Metrics{})
		var mu sync.Mutex
		produce(2, func(r *core.Request, now int64) {
			mu.Lock()
			s.Add(r, now, 1200)
			mu.Unlock()
		})
	}))
	return ferr
}

func (l *layers) diskLayer() error {
	sm := disk.ServiceModel{Disk: l.disk}
	l.ns("disk.service_times_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			r := l.trace3[i&4095]
			_, svc := sm.Times((i*37)%l.disk.Cylinders, r.Cylinder, r.Size, nil)
			layerSink += uint64(svc)
		}
	}))
	array, err := disk.NewRAID5(arrayDisks, arrayBlock, l.disk)
	if err != nil {
		return err
	}
	blocks := array.MaxBlocks()
	l.ns("disk.raid5.read_map_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			layerSink += uint64(len(array.Read(int64(i*7919) % blocks)))
		}
	}))
	l.ns("disk.raid5.write_map_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			layerSink += uint64(len(array.Write(int64(i*7919) % blocks)))
		}
	}))
	return nil
}

// layerWalkDepth is the queue the OnDispatch loop walks: sim-single's
// cascaded arm dispatches from a queue of about this depth on average
// (sched.queue_depth_mean), so the number is what one dispatch pays there.
const layerWalkDepth = 22

func (l *layers) metricsLayer() error {
	col := metrics.NewCollector(prioDims, prioLevels)
	l.ns("metrics.on_arrival_ns", l.lt.perOp(func(n int) {
		col.Reset()
		for i := 0; i < n; i++ {
			col.OnArrival(l.trace3[i&4095])
		}
	}))
	l.ns("metrics.on_served_ns", l.lt.perOp(func(n int) {
		col.Reset() // the waiting-time sample buffer grows per call
		for i := 0; i < n; i++ {
			col.OnServed(l.trace3[i&4095], 8000, 17000, int64(i))
		}
	}))
	q := &fifo{}
	for i := 0; i < layerWalkDepth; i++ {
		q.Add(l.trace3[i], 0, 0)
	}
	l.ns("metrics.on_dispatch_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			col.OnDispatch(l.trace3[i&4095], q.Each)
		}
	}))
	return nil
}

func (l *layers) engine() error {
	// The bare engine: FIFO queue, fixed service, a collector with no
	// priority dimensions (so no inversion walk). Arrivals are spaced one
	// service apart, so every request costs one arrival and one completion.
	const service = 1000
	n := l.p.scaled(200_000)
	reqs := make([]core.Request, n)
	trace := make([]*core.Request, n)
	for i := range reqs {
		reqs[i] = core.Request{ID: uint64(i + 1), Arrival: int64(i) * service}
		trace[i] = &reqs[i]
	}
	l.ns("sim.engine.event_ns", l.lt.fixed(2*n, func() {
		st := &sim.Station{Sched: &fifo{}, Col: metrics.NewCollector(0, 1), FixedService: service}
		eng := &sim.Engine{Stations: []*sim.Station{st}}
		eng.Run(trace, func(r *core.Request, now int64) { st.Enqueue(r, now) })
		layerSink += st.Col.Served
	}))

	small, err := openTrace(l.p.seed, 2000, l.disk.Cylinders).Generate()
	if err != nil {
		return err
	}
	var ru sim.Reuse
	run := func(reuse *sim.Reuse) error {
		_, err := sim.Run(sim.Config{
			Disk: l.disk, Scheduler: sched.NewCSCAN(), Reuse: reuse,
			Options: sim.Options{DropLate: true, Dims: prioDims, Levels: prioLevels, Seed: l.p.seed},
		}, small)
		return err
	}
	if err := run(&ru); err != nil { // grow the recycled state
		return err
	}
	var rerr error
	const runs = 10
	a, _ := mallocs(func() {
		for i := 0; i < runs && rerr == nil; i++ {
			rerr = run(&ru)
		}
	})
	l.out.set("sim.reuse.allocs_per_run", a/runs, "count")
	a, _ = mallocs(func() {
		for i := 0; i < runs && rerr == nil; i++ {
			rerr = run(nil)
		}
	})
	l.out.set("sim.fresh.allocs_per_run", a/runs, "count")
	return rerr
}

// observers prices each sim observer as a difference: the cascaded arm with
// exactly one hook attached minus the same run with none. "disabled" is the
// same difference with every hook field set to an explicit empty value — an
// A/A comparison whose result is the method's own noise floor.
func (l *layers) observers() error {
	w := &simObserved{p: params{seed: l.p.seed, scale: l.p.scale / 4}}
	if err := w.setup(nil); err != nil {
		return err
	}
	variants := []struct {
		name string
		opts func() sim.Options
	}{
		{"", w.bareOptions},
		{"sim.obs.disabled_ns_per_req", func() sim.Options {
			o := w.bareOptions()
			o.Shadows = []*sim.Shadow{}
			return o
		}},
		{"sim.obs.trace_ns_per_req", func() sim.Options {
			o := w.bareOptions()
			o.Trace = sim.JSONLTrace(io.Discard)
			return o
		}},
		{"sim.obs.decisions_ns_per_req", func() sim.Options {
			o := w.bareOptions()
			o.Decisions = w.decisions
			return o
		}},
		{"sim.obs.shadow_ns_per_req", func() sim.Options {
			o := w.bareOptions()
			o.Shadows = w.observedOptions().Shadows
			return o
		}},
		{"sim.obs.telemetry_ns_per_req", func() sim.Options {
			o := w.bareOptions()
			w.telemetry.Reset()
			o.Telemetry = w.telemetry
			return o
		}},
	}
	// Interleave the variants so drift hits them all alike.
	times := make([][]float64, len(variants))
	for round := 0; round < layerBatches; round++ {
		for i, v := range variants {
			s, err := simArms[0].mk(l.disk.Cylinders)
			if err != nil {
				return err
			}
			opts := v.opts()
			t0 := time.Now()
			res, err := sim.Run(sim.Config{Disk: l.disk, Scheduler: s, Reuse: &w.reuse, Options: opts}, w.trace)
			if err != nil {
				return err
			}
			times[i] = append(times[i], float64(time.Since(t0).Nanoseconds())/float64(len(w.trace)))
			if d := digestOf(res); d != w.bare {
				return fmt.Errorf("observer variant %q changed the digest: %+v, want %+v", v.name, d, w.bare)
			}
		}
	}
	base := median(times[0])
	for i, v := range variants[1:] {
		l.ns(v.name, median(times[i+1])-base)
	}
	return nil
}

func (l *layers) fleet() error {
	w := &simFleet{p: params{seed: l.p.seed, scale: l.p.scale / 4}}
	if err := w.setup(nil); err != nil {
		return err
	}
	logical := float64(len(w.traces[0]))
	var err error
	var ar *sim.ArrayResult
	runArray := func() { ar, err = sim.RunArray(w.arrayConfig(nil), w.traces[0]) }
	l.ns("sim.array.ns_per_logical", l.lt.fixed(len(w.traces[0]), runArray))
	a, _ := mallocs(runArray)
	if err != nil {
		return err
	}
	l.out.set("sim.array.allocs_per_logical", a/logical, "count")
	var phys uint64
	for _, n := range ar.PerDiskOps {
		phys += n
	}
	l.out.set("sim.array.phys_ops_per_logical", float64(phys)/logical, "count")

	reqs := float64(len(w.traces[1]))
	runCluster := func() { _, err = cluster.Run(w.clusterConfig(nil), w.traces[1]) }
	l.ns("cluster.run.ns_per_req", l.lt.fixed(len(w.traces[1]), runCluster))
	a, b := mallocs(runCluster)
	if err != nil {
		return err
	}
	l.out.set("cluster.run.allocs_per_req", a/reqs, "count")
	l.out.set("cluster.run.bytes_per_req", b/reqs, "B")

	// Routers that need no live queue state can be timed alone; least-loaded
	// reads station depths only cluster.Run can build, so the traced pass
	// times it in place.
	nodes := make([]*cluster.Node, 8)
	for i := range nodes {
		nodes[i] = &cluster.Node{ID: i, Blocks: clusterDisksPerNode * l.disk.Cylinders}
	}
	for _, v := range []struct {
		name   string
		router cluster.Router
	}{{"cluster.route_ns.rr", &cluster.RoundRobin{}}, {"cluster.route_ns.affinity", cluster.Affinity{}}} {
		l.ns(v.name, l.lt.perOp(func(n int) {
			for i := 0; i < n; i++ {
				layerSink += uint64(v.router.Route(w.traces[1][i%len(w.traces[1])], nodes, int64(i)))
			}
		}))
	}
	return nil
}

func (l *layers) workloads() error {
	n := l.p.scaled(100_000) / 4
	if n < 16 {
		n = 16
	}
	open := openTrace(l.p.seed, n, l.disk.Cylinders)
	var err error
	var trace []*core.Request
	l.ns("workload.open.gen_ns_per_req", l.lt.fixed(n, func() { trace, err = open.Generate() }))
	var arena workload.Arena
	l.ns("workload.open.arena_ns_per_req", l.lt.fixed(n, func() { trace, err = open.GenerateArena(&arena) }))
	if err != nil {
		return err
	}

	fleet := &simFleet{p: l.p, disk: l.disk}
	if fleet.array, err = disk.NewRAID5(arrayDisks, arrayBlock, l.disk); err != nil {
		return err
	}
	var streams []*core.Request
	var sarena workload.Arena
	sw := fleet.streams(n)
	perRun := l.lt.fixed(1, func() { streams, err = sw.GenerateArena(&sarena) })
	if err != nil {
		return err
	}
	l.ns("workload.streams.arena_ns_per_req", perRun/float64(len(streams)))

	spec, err := workload.ScenarioSpec("mixed", l.p.seed, n, l.disk.Cylinders)
	if err != nil {
		return err
	}
	var marena workload.Arena
	l.ns("workload.spec_mixed.arena_ns_per_req", l.lt.fixed(spec.Count(), func() { _, err = spec.GenerateArena(&marena) }))
	if err != nil {
		return err
	}

	// A dispatch trace captured in memory from a sim-single run is what
	// LoadReplay reads back.
	var jsonl bytes.Buffer
	s, err := simArms[0].mk(l.disk.Cylinders)
	if err != nil {
		return err
	}
	if _, err := sim.Run(sim.Config{
		Disk: l.disk, Scheduler: s,
		Options: sim.Options{DropLate: true, Dims: prioDims, Levels: prioLevels, Seed: l.p.seed, Trace: sim.JSONLTrace(&jsonl)},
	}, trace); err != nil {
		return err
	}
	var loaded *workload.Replay
	l.ns("workload.replay.load_ns_per_req", l.lt.fixed(n, func() { loaded, err = workload.LoadReplay(bytes.NewReader(jsonl.Bytes())) }))
	if err != nil {
		return err
	}
	if loaded.Len() != n {
		return fmt.Errorf("replay loaded %d requests of %d recorded", loaded.Len(), n)
	}

	var csv bytes.Buffer
	var back []*core.Request
	l.ns("workload.csv.roundtrip_ns_per_req", l.lt.fixed(n, func() {
		csv.Reset()
		if err = workload.WriteCSV(&csv, trace, prioDims); err == nil {
			back, err = workload.ReadCSV(&csv)
		}
	}))
	if err != nil {
		return err
	}
	if len(back) != n {
		return fmt.Errorf("CSV round trip returned %d requests of %d", len(back), n)
	}
	return nil
}

func (l *layers) serve() error {
	w := &serveLive{p: l.p, disk: l.disk}
	open := openTrace(l.p.seed, liveRing, l.disk.Cylinders)
	open.DeadlineMin, open.DeadlineMax = 0, 0
	ring, err := open.Generate()
	if err != nil {
		return err
	}
	ctx := context.Background()

	// Submit into a dispatcher that was never started: the cost of the
	// call itself, with no consumer competing and no backpressure.
	var ferr error
	l.ns("serve.submit_ns", l.lt.fixed(len(ring), func() {
		d, err := w.newDispatcher(&nullBackend{cylinders: l.disk.Cylinders}, &serve.Metrics{}, 0, false)
		if err != nil {
			ferr = err
			return
		}
		for _, r := range ring {
			if err := d.Submit(ctx, r); err != nil {
				ferr = err
				return
			}
		}
		d.Stop()
	}))
	if ferr != nil {
		return ferr
	}

	clock, err := serve.NewClock(1)
	if err != nil {
		return err
	}
	l.ns("serve.clock_now_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			layerSink += uint64(clock.Now())
		}
	}))

	// Drain with liveMaxQueue requests queued and nothing in flight.
	v := make([]float64, layerBatches)
	for i := range v {
		m := &serve.Metrics{}
		d, err := w.newDispatcher(&nullBackend{cylinders: l.disk.Cylinders}, m, 0, false)
		if err != nil {
			return err
		}
		if err := serve.Preload(ctx, d, ring[:liveMaxQueue]); err != nil {
			return err
		}
		d.Start(ctx)
		t0 := time.Now()
		if err := d.Drain(ctx); err != nil {
			return err
		}
		v[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if got := m.Completed.Load(); got != liveMaxQueue {
			return fmt.Errorf("drain completed %d of %d queued", got, liveMaxQueue)
		}
	}
	l.out.set("serve.drain_ms", median(v), "ms")
	return nil
}

func (l *layers) shared() error {
	var ctr obs.Counter
	l.ns("obs.counter_inc_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	}))
	var h obs.Histogram
	l.ns("obs.histogram_observe_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(uint64(i) * 2654435761 >> 40)
		}
	}))
	layerSink += ctr.Load() + h.Count()

	inj, err := fault.New(fault.Plan{Seed: l.p.seed, TransientRate: 0.01, Metrics: &fault.Metrics{}}, l.disk.Cylinders)
	if err != nil {
		return err
	}
	l.ns("fault.verdict_ns", l.lt.perOp(func(n int) {
		for i := 0; i < n; i++ {
			r := l.trace3[i&4095]
			v, _ := inj.Outcome(0, r.Cylinder, r, int64(i))
			layerSink += uint64(v)
		}
	}))

	const cells = 4096
	var merr error
	us := l.lt.fixed(cells, func() {
		_, merr = runner.Map(0, cells, func(i int) (int, error) { return i, nil })
	}) / 1e3
	if merr != nil {
		return merr
	}
	l.out.set("runner.map_us_per_cell", us, "us")

	rec := newRecorder(1 << 20)
	rec.pretouch()
	l.ns("trace.span_cost_ns", measureSpanCost(rec).total)
	return nil
}
