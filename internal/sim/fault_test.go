package sim

// Fault-injection tests: zero-fault byte-identity, transient retry and
// exhaustion semantics, fault-attributed drops, and the
// degraded-mode RAID-5 acceptance scenario (fail disk k mid-run, serve
// its reads by reconstruction, rebuild in the background through the
// foreground schedulers, and return to non-degraded service afterwards).

import (
	"reflect"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

func TestZeroFaultPlanByteIdenticalSingle(t *testing.T) {
	m := xp()
	trace := goldenTrace(3, m)
	run := func(plan *fault.Plan) ([]flatEvent, *Result) {
		var events []flatEvent
		cfg := Config{Disk: m, Scheduler: sched.NewSCAN(),
			Options: Options{DropLate: true, Fault: plan,
				Trace: func(ev TraceEvent) { events = append(events, flatten(ev)) }}}
		res, err := Run(cfg, smallTraceCopy(trace))
		if err != nil {
			t.Fatal(err)
		}
		return events, res
	}
	baseEvents, baseRes := run(nil)
	for name, plan := range map[string]*fault.Plan{
		"zero-plan": {Seed: 99},
		// A plan whose rate is below the RNG's resolution, so it never
		// fires: the injector is installed and draws on every completion,
		// yet must not perturb a single byte.
		"armed-but-silent": {Seed: 99, TransientRate: 1e-300},
	} {
		events, res := run(plan)
		if !reflect.DeepEqual(events, baseEvents) {
			t.Errorf("%s: trace stream diverged from fault-free run", name)
		}
		if !reflect.DeepEqual(res.Collector, baseRes.Collector) {
			t.Errorf("%s: collector diverged from fault-free run", name)
		}
		if res.HeadTravel != baseRes.HeadTravel {
			t.Errorf("%s: head travel %d != %d", name, res.HeadTravel, baseRes.HeadTravel)
		}
	}
}

func TestZeroFaultPlanByteIdenticalArray(t *testing.T) {
	array := testArray(t)
	var trace []*core.Request
	for i := 0; i < 120; i++ {
		trace = append(trace, &core.Request{
			ID: uint64(i + 1), Arrival: int64(i) * 7_000,
			Cylinder: i * 53 % 4000, Size: 64 << 10, Write: i%4 == 0,
		})
	}
	run := func(plan *fault.Plan) ([]flatEvent, *ArrayResult) {
		var events []flatEvent
		cfg := ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
			Options: Options{Fault: plan,
				Trace: func(ev TraceEvent) { events = append(events, flatten(ev)) }}}
		res, err := RunArray(cfg, smallTraceCopy(trace))
		if err != nil {
			t.Fatal(err)
		}
		return events, res
	}
	baseEvents, baseRes := run(nil)
	events, res := run(&fault.Plan{Seed: 4, TransientRate: 1e-300})
	if !reflect.DeepEqual(events, baseEvents) {
		t.Error("armed-but-silent plan: array trace stream diverged")
	}
	if !reflect.DeepEqual(res.PerDisk, baseRes.PerDisk) || !reflect.DeepEqual(res.Logical, baseRes.Logical) {
		t.Error("armed-but-silent plan: array collectors diverged")
	}
}

// onceFaulty is a plan whose first completion faults and whose second
// does not: seed 3's first two draws are 0.13 and 0.72.
func onceFaulty(retryBase int64) *fault.Plan {
	return &fault.Plan{Seed: 3, TransientRate: 0.5, RetryBase: retryBase}
}

func TestTransientRetriesThenServes(t *testing.T) {
	trace := []*core.Request{{ID: 1, Arrival: 0, Cylinder: 100, Size: 4 << 10}}
	res, err := Run(Config{FixedService: 10_000, Scheduler: sched.NewFCFS(),
		Options: Options{Fault: onceFaulty(1_000)}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 1 || res.Dropped != 0 {
		t.Fatalf("served=%d dropped=%d, want 1/0", res.Served, res.Dropped)
	}
	if res.FaultAttempts != 1 {
		t.Errorf("FaultAttempts = %d, want 1", res.FaultAttempts)
	}
	// The failed attempt occupied the disk: two attempts of busy time.
	if res.ServiceTime != 20_000 {
		t.Errorf("ServiceTime = %d, want 20000", res.ServiceTime)
	}
	if res.Faults == nil || res.Faults.Transients != 1 || res.Faults.Retries != 1 {
		t.Errorf("fault stats = %+v, want 1 transient, 1 retry", res.Faults)
	}
	// Completion: 10000 (failed) + 1000 backoff + 10000 (served).
	if res.Makespan != 21_000 {
		t.Errorf("Makespan = %d, want 21000", res.Makespan)
	}
}

func TestTransientRetryExhausted(t *testing.T) {
	trace := []*core.Request{{ID: 1, Arrival: 0, Cylinder: 5, Size: 4 << 10}}
	res, err := Run(Config{FixedService: 10_000, Scheduler: sched.NewFCFS(),
		Options: Options{Fault: &fault.Plan{
			TransientRate: 1, MaxRetries: 2, RetryBase: 1_000,
		}}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 0 || res.Dropped != 1 || res.FaultDropped != 1 {
		t.Fatalf("served=%d dropped=%d faultDropped=%d, want 0/1/1",
			res.Served, res.Dropped, res.FaultDropped)
	}
	if res.FaultAttempts != 3 {
		t.Errorf("FaultAttempts = %d, want 3 (initial + 2 retries)", res.FaultAttempts)
	}
	fs := res.Faults
	if fs.Transients != 3 || fs.Retries != 2 || fs.Exhausted != 1 {
		t.Errorf("fault stats = %+v, want 3 transients, 2 retries, 1 exhausted", fs)
	}
	// Exponential backoff: 10000 + 1000 + 10000 + 2000 + 10000 = 33000.
	if res.Makespan != 33_000 {
		t.Errorf("Makespan = %d, want 33000", res.Makespan)
	}
}

func TestDeadlineExpiresDuringBackoff(t *testing.T) {
	trace := []*core.Request{{ID: 1, Arrival: 0, Cylinder: 5, Size: 4 << 10, Deadline: 15_000}}
	res, err := Run(Config{FixedService: 10_000, Scheduler: sched.NewFCFS(),
		Options: Options{DropLate: true, Fault: onceFaulty(10_000)}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	// The only attempt faulted; the retry re-enqueued at 20000, past the
	// 15000 deadline — a drop attributable to the fault, not to load.
	if res.Served != 0 || res.Dropped != 1 || res.FaultDropped != 1 {
		t.Fatalf("served=%d dropped=%d faultDropped=%d, want 0/1/1",
			res.Served, res.Dropped, res.FaultDropped)
	}
}

// Every arrival ends served or dropped, whatever the clock reads: a run
// whose trace starts before time zero and retries its transient faults
// still runs to the last request.
func TestEveryArrivalServedOrDropped(t *testing.T) {
	trace := workload.Open{
		Seed: 4, Count: 300, MeanInterarrival: 8_000, Dims: 1, Levels: 4, Cylinders: 3832, Size: 4 << 10,
		DeadlineMin: 50_000, DeadlineMax: 200_000,
	}.MustGenerate()
	shift := -5 - trace[0].Arrival
	for _, r := range trace {
		r.Arrival += shift
		r.Deadline += shift
	}
	for _, drop := range []bool{false, true} {
		res, err := Run(Config{FixedService: 10_000, Scheduler: sched.NewEDF(), Options: Options{
			DropLate: drop, Fault: &fault.Plan{Seed: 1, TransientRate: 0.5, MaxRetries: 10, RetryBase: 1_000},
		}}, trace)
		if err != nil {
			t.Fatal(err)
		}
		if n := uint64(len(trace)); res.Arrived != n || res.Served+res.Dropped != n || res.Faults.Retries == 0 {
			t.Errorf("DropLate %v: %d of %d arrived, %d served + %d dropped, %d retries",
				drop, res.Arrived, n, res.Served, res.Dropped, res.Faults.Retries)
		}
	}
}

func TestRunRejectsDiskFailureWithoutArray(t *testing.T) {
	_, err := Run(Config{FixedService: 1000, Scheduler: sched.NewFCFS(),
		Options: Options{Fault: &fault.Plan{FailDisk: 0, FailAt: 1}}}, nil)
	if err == nil {
		t.Fatal("expected error: whole-disk failure needs an array")
	}
}

func TestArrayRejectsFailDiskOutOfRange(t *testing.T) {
	array := testArray(t)
	_, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
		Options: Options{Fault: &fault.Plan{FailDisk: 7, FailAt: 1}}}, nil)
	if err == nil {
		t.Fatal("expected error: FailDisk outside the array")
	}
}

// blocksOnDisk returns n logical blocks whose data unit lives on disk d,
// scanning upward from block from.
func blocksOnDisk(array *disk.RAID5, d int, from int64, n int) []int64 {
	var out []int64
	for b := from; int64(len(out)) < int64(n); b++ {
		if _, dd, _ := array.Layout(b); dd == d {
			out = append(out, b)
		}
	}
	return out
}

// degradedEvent is the comparison tuple of the post-rebuild identity
// check: everything that defines a dispatch except the physical request
// ID (reconstruction fan-outs shift the ID sequence between runs).
type degradedEvent struct {
	Now      int64
	DiskID   int
	Cylinder int
	Head     int
	Seek     int64
	Service  int64
}

// flattenDegraded copies a dispatch's degradedEvent fields inside the
// trace hook: array runs recycle the physical request behind
// ev.Request once it leaves the engine.
func flattenDegraded(ev TraceEvent) degradedEvent {
	return degradedEvent{ev.Now, ev.DiskID, ev.Request.Cylinder, ev.Head, ev.Seek, ev.Service}
}

// TestDegradedModeCorrectness is the acceptance scenario: disk k fails
// mid-run; every subsequent read of a block on disk k is served by
// reconstruction from the surviving disks (no dispatch ever lands on
// disk k while it is down); the background rebuild completes through the
// foreground schedulers; and post-rebuild service is byte-identical to
// the non-degraded run on the same trace.
func TestDegradedModeCorrectness(t *testing.T) {
	array := testArray(t)
	const k = 2
	const failAt = int64(1_000_000)

	kBlocks := blocksOnDisk(array, k, 0, 8)
	otherBlocks := blocksOnDisk(array, 0, 0, 8)
	// Head-reset blocks (one per disk) and probe blocks for the
	// post-rebuild phase, far from the earlier blocks so cylinders differ.
	var resetBlocks []int64
	for d := 0; d < array.Disks; d++ {
		resetBlocks = append(resetBlocks, blocksOnDisk(array, d, 0, 1)[0])
	}
	probeBlocks := append(blocksOnDisk(array, k, 40_000, 3), blocksOnDisk(array, 1, 40_000, 3)...)

	var trace []*core.Request
	var id uint64
	add := func(at int64, block int64) {
		id++
		trace = append(trace, &core.Request{ID: id, Arrival: at, Cylinder: int(block), Size: 64 << 10})
	}
	// Phase 1: healthy operation, draining well before the failure.
	for i := 0; i < 8; i++ {
		add(int64(i)*40_000, kBlocks[i%len(kBlocks)])
		add(int64(i)*40_000+10_000, otherBlocks[i%len(otherBlocks)])
	}
	// Phase 2: inside the degraded window (the rebuild below takes ~1.2s).
	degradedKReads := 0
	for i := 0; i < 6; i++ {
		at := failAt + 10_000 + int64(i)*30_000
		if i%2 == 0 {
			add(at, kBlocks[i%len(kBlocks)])
			degradedKReads++
		} else {
			add(at, otherBlocks[i%len(otherBlocks)])
		}
	}
	// Phase 3: long after the rebuild — head resets, then probes.
	const phase3 = int64(6_000_000)
	for i, b := range resetBlocks {
		add(phase3+int64(i)*50_000, b)
	}
	probeStart := phase3 + int64(len(resetBlocks))*50_000 + 100_000
	for i, b := range probeBlocks {
		add(probeStart+int64(i)*50_000, b)
	}

	plan := &fault.Plan{
		FailDisk: k, FailAt: failAt,
		Rebuild: true, RebuildBlocks: 30, RebuildInterval: 10_000,
	}
	var events []degradedEvent
	cfg := ArrayConfig{
		Array: array, NewScheduler: fcfsPerDisk,
		Options: Options{Fault: plan, Trace: func(ev TraceEvent) { events = append(events, flattenDegraded(ev)) }},
	}
	res, err := RunArray(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}

	fs := res.Faults
	if fs == nil || fs.FailedAt != failAt {
		t.Fatalf("fault stats = %+v, want FailedAt=%d", fs, failAt)
	}
	rebuiltAt := fs.RebuiltAt
	if rebuiltAt <= failAt {
		t.Fatalf("rebuild never completed (RebuiltAt %d)", rebuiltAt)
	}
	if rebuiltAt >= phase3 {
		t.Fatalf("rebuild finished at %d, after the post-rebuild phase %d — retune the test", rebuiltAt, phase3)
	}

	// No dispatch may land on disk k while it is down.
	for _, ev := range events {
		if ev.DiskID == k && ev.Now > failAt && ev.Now <= rebuiltAt {
			t.Fatalf("dispatch on failed disk %d at t=%d (degraded window (%d,%d])",
				k, ev.Now, failAt, rebuiltAt)
		}
	}
	// Every degraded read of disk k reconstructed from the survivors.
	if res.Reconstructions != uint64(degradedKReads) {
		t.Errorf("Reconstructions = %d, want %d", res.Reconstructions, degradedKReads)
	}
	// The rebuild read every stripe row once from each survivor.
	if want := uint64(plan.RebuildBlocks * (array.Disks - 1)); res.RebuildReads != want {
		t.Errorf("RebuildReads = %d, want %d", res.RebuildReads, want)
	}
	// Disk k serves again after the rebuild.
	served := false
	for _, ev := range events {
		if ev.DiskID == k && ev.Now > rebuiltAt {
			served = true
			break
		}
	}
	if !served {
		t.Error("no dispatch on disk k after the rebuild")
	}
	// Nothing was lost: every logical request completed.
	if res.Logical.Served != uint64(len(trace)) {
		t.Errorf("Logical.Served = %d, want %d", res.Logical.Served, len(trace))
	}

	// Post-rebuild identity: the probe dispatches must match the
	// non-degraded run on the same trace exactly (the head resets pin
	// every disk to the same cylinder in both runs first).
	probes := func(evs []degradedEvent) []degradedEvent {
		var out []degradedEvent
		for _, ev := range evs {
			if ev.Now >= probeStart {
				out = append(out, ev)
			}
		}
		return out
	}
	var goldenEvents []degradedEvent
	goldenCfg := ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
		Options: Options{Trace: func(ev TraceEvent) { goldenEvents = append(goldenEvents, flattenDegraded(ev)) }}}
	if _, err := RunArray(goldenCfg, smallTraceCopy(trace)); err != nil {
		t.Fatal(err)
	}
	got, want := probes(events), probes(goldenEvents)
	if len(want) == 0 {
		t.Fatal("no probe events in the golden run — retune the test")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-rebuild service diverged from the non-degraded run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDegradedWritesAbsorbed checks the degraded write paths: with the
// data disk down the parity is updated from the other data units and the
// data write is absorbed; with the parity disk down the data is written
// unprotected.
func TestDegradedWritesAbsorbed(t *testing.T) {
	array := testArray(t)
	const k = 2
	kBlocks := blocksOnDisk(array, k, 0, 2)
	var trace []*core.Request
	// Write to a block whose data disk is down, after the failure.
	trace = append(trace, &core.Request{ID: 1, Arrival: 200_000, Cylinder: int(kBlocks[0]), Size: 64 << 10, Write: true})
	res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
		Options: Options{Fault: &fault.Plan{FailDisk: k, FailAt: 100_000}}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Logical.Served != 1 {
		t.Fatalf("Logical.Served = %d, want 1", res.Logical.Served)
	}
	if res.AbsorbedWrites != 1 {
		t.Errorf("AbsorbedWrites = %d, want 1", res.AbsorbedWrites)
	}
	// Degraded RMW with the data disk down: N-2 reads + 1 parity write.
	var ops uint64
	for _, n := range res.PerDiskOps {
		ops += n
	}
	if want := uint64(array.Disks - 2 + 1); ops != want {
		t.Errorf("physical ops = %d, want %d", ops, want)
	}
}

// TestFailureReroutesQueuedAndInFlight drains the dead disk's queue and
// re-routes the in-flight operation through reconstruction.
func TestFailureReroutesQueuedAndInFlight(t *testing.T) {
	array := testArray(t)
	const k = 2
	kBlocks := blocksOnDisk(array, k, 0, 4)
	var trace []*core.Request
	// Burst of reads on disk k just before the failure: one is in flight
	// and the rest are queued when the disk dies.
	for i, b := range kBlocks {
		trace = append(trace, &core.Request{ID: uint64(i + 1), Arrival: int64(i) * 100, Cylinder: int(b), Size: 64 << 10})
	}
	res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
		Options: Options{Fault: &fault.Plan{FailDisk: k, FailAt: 5_000}}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Logical.Served != uint64(len(trace)) {
		t.Fatalf("Logical.Served = %d, want %d (all reads must reconstruct)", res.Logical.Served, len(trace))
	}
	if res.Reconstructions != uint64(len(trace)) {
		t.Errorf("Reconstructions = %d, want %d", res.Reconstructions, len(trace))
	}
	if res.Faults.LostInFlight != 1 {
		t.Errorf("LostInFlight = %d, want 1", res.Faults.LostInFlight)
	}
}

// TestDegradedReadOpShapes checks what a read costs while disk k is down:
// a block on a survivor stays one op on its own disk; a block on k is
// reconstructed by one same-cylinder read on every survivor, counted once
// in Reconstructions.
func TestDegradedReadOpShapes(t *testing.T) {
	array := testArray(t)
	const k = 2
	for _, tc := range []struct {
		name   string
		onDisk int
		recon  uint64
	}{
		{"survivor", 0, 0},
		{"failed", k, 1},
	} {
		block := blocksOnDisk(array, tc.onDisk, 0, 1)[0]
		trace := []*core.Request{{ID: 1, Arrival: 200_000, Cylinder: int(block), Size: 64 << 10}}
		// The hook copies the physical op: array runs recycle it once it
		// leaves the engine.
		type opEvent struct {
			DiskID  int
			Request core.Request
		}
		var events []opEvent
		res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
			Options: Options{Fault: &fault.Plan{FailDisk: k, FailAt: 100_000},
				Trace: func(ev TraceEvent) { events = append(events, opEvent{ev.DiskID, *ev.Request}) }}}, trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.Logical.Served != 1 {
			t.Errorf("%s: Logical.Served = %d, want 1", tc.name, res.Logical.Served)
		}
		if res.Reconstructions != tc.recon {
			t.Errorf("%s: Reconstructions = %d, want %d", tc.name, res.Reconstructions, tc.recon)
		}
		_, d, cyl := array.Layout(block)
		want := []int{d}
		if tc.recon > 0 {
			want = nil
			for dd := range array.Disks {
				if dd != k {
					want = append(want, dd)
				}
			}
		}
		var disks []int
		for _, ev := range events {
			disks = append(disks, ev.DiskID)
			if ev.Request.Cylinder != cyl || ev.Request.Write {
				t.Errorf("%s: op %+v, want a read of cylinder %d", tc.name, ev.Request, cyl)
			}
		}
		if !reflect.DeepEqual(disks, want) {
			t.Errorf("%s: ops on disks %v, want %v", tc.name, disks, want)
		}
	}
}

// TestRebuildSurvivesAbandonedReads runs a rebuild whose reads the retry
// budget abandons (no retries, frequent transients): an abandoned read
// still retires from its stripe row, so every row is read once and the
// disk returns to service, with and without a pause between rows.
func TestRebuildSurvivesAbandonedReads(t *testing.T) {
	array := testArray(t)
	for _, interval := range []int64{0, 10_000} {
		plan := &fault.Plan{Seed: 5, TransientRate: 0.4, MaxRetries: -1,
			FailDisk: 1, FailAt: 100_000, Rebuild: true, RebuildBlocks: 40, RebuildInterval: interval}
		res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk, Options: Options{Fault: plan}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fs := res.Faults
		if fs.Exhausted == 0 {
			t.Fatalf("interval %d: no rebuild read was abandoned — retune the test", interval)
		}
		if fs.RebuiltAt <= 0 {
			t.Errorf("interval %d: rebuild never completed (%d reads abandoned)", interval, fs.Exhausted)
		}
		if want := uint64(plan.RebuildBlocks * (array.Disks - 1)); res.RebuildReads != want {
			t.Errorf("interval %d: RebuildReads = %d, want %d", interval, res.RebuildReads, want)
		}
	}
}

// TestRetryBookkeepingFollowsTheRequest pins the fault attribution of an
// array run to physical request IDs, not to the memory behind them: the
// run recycles a physical request once it leaves the engine, and a retry
// count left behind for one (say by the failure drain) would shorten a
// later op's retry budget or mark its deadline drop as a fault drop. A
// loaded FCFS array with frequent transients and a failure mid-run drains
// retried ops from the dead disk's queue.
func TestRetryBookkeepingFollowsTheRequest(t *testing.T) {
	array := testArray(t)
	plan := &fault.Plan{Seed: 4, TransientRate: 0.2, MaxRetries: 2,
		FailDisk: 1, FailAt: 3_000_000, Rebuild: true, RebuildBlocks: 30, RebuildInterval: 20_000}
	faults := map[uint64]int{} // faulted attempts per physical request ID
	var exhausted, faultDrops uint64
	res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk,
		Options: Options{DropLate: true, Dims: 1, Levels: 8, Fault: plan,
			Trace: func(ev TraceEvent) {
				id := ev.Request.ID
				switch {
				case ev.Faulted:
					faults[id]++
					if ev.Dropped {
						exhausted++
						faultDrops++
						if faults[id] != plan.MaxRetries+1 {
							t.Errorf("op %d abandoned after %d faulted attempts, want %d", id, faults[id], plan.MaxRetries+1)
						}
					}
				case ev.Dropped && faults[id] > 0:
					faultDrops++
				}
			}}}, arrayStreamsTrace(t, array, 80, 6000))
	if err != nil {
		t.Fatal(err)
	}
	if exhausted == 0 || res.Faults.FailedAt == 0 {
		t.Fatalf("no op was abandoned or no disk failed — retune the test: %+v", *res.Faults)
	}
	var got uint64
	for _, c := range res.PerDisk {
		got += c.FaultDropped
	}
	if got != faultDrops {
		t.Errorf("collectors count %d fault drops, the dispatch stream %d", got, faultDrops)
	}
}
