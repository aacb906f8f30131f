package sim

import (
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/sched"
)

func testArray(t testing.TB) *disk.RAID5 {
	t.Helper()
	r, err := disk.NewRAID5(5, 64<<10, xp())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func fcfsPerDisk(int) (sched.Scheduler, error) { return sched.NewFCFS(), nil }

// BenchmarkRunArray measures the RAID-5 run path end to end: logical
// mapping, read-modify-write phasing, the free lists and the engine's
// per-disk dispatch/completion cycle, on the 4+1 array under SCAN-EDF with
// the §6 editing mix, reported as logical requests per second. Every
// logical request must be served or missed.
func BenchmarkRunArray(b *testing.B) {
	array := testArray(b)
	const n = 10_000
	trace := arrayStreamsTrace(b, array, 80, n)
	cfg := ArrayConfig{Array: array,
		NewScheduler: func(int) (sched.Scheduler, error) { return sched.NewSCANEDF(50_000), nil },
		Options:      Options{DropLate: true, Dims: 1, Levels: 8}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunArray(cfg, trace)
		if err != nil {
			b.Fatal(err)
		}
		if l := res.Logical; l.Served+l.Dropped != n {
			b.Fatalf("served %d + missed %d logical requests, want %d", l.Served, l.Dropped, n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

func TestArrayServesAllReads(t *testing.T) {
	array := testArray(t)
	var trace []*core.Request
	for i := 0; i < 200; i++ {
		trace = append(trace, &core.Request{
			ID: uint64(i + 1), Arrival: int64(i) * 5_000,
			Cylinder: i * 37 % 5000, Size: 64 << 10,
		})
	}
	res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Logical.Arrived != 200 || res.Logical.Served != 200 {
		t.Errorf("arrived=%d served=%d, want 200/200", res.Logical.Arrived, res.Logical.Served)
	}
	var totalOps uint64
	for _, n := range res.PerDiskOps {
		totalOps += n
	}
	if totalOps != 200 {
		t.Errorf("reads should map to exactly one op each, got %d", totalOps)
	}
}

func TestArrayWritesAreRMW(t *testing.T) {
	array := testArray(t)
	trace := []*core.Request{
		{ID: 1, Arrival: 0, Cylinder: 7, Size: 64 << 10, Write: true},
	}
	res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk}, trace)
	if err != nil {
		t.Fatal(err)
	}
	var totalOps uint64
	busyDisks := 0
	for _, n := range res.PerDiskOps {
		totalOps += n
		if n > 0 {
			busyDisks++
		}
	}
	if totalOps != 4 || busyDisks != 2 {
		t.Errorf("RMW should issue 4 ops on 2 disks, got %d on %d", totalOps, busyDisks)
	}
	if res.Logical.Served != 1 {
		t.Errorf("logical write not completed: %+v", res.Logical)
	}
}

func TestArrayWritePhaseOrdering(t *testing.T) {
	// The write phase must not start before the read phase completes, so
	// a lone write takes at least two service times of wall clock.
	array := testArray(t)
	trace := []*core.Request{
		{ID: 1, Arrival: 0, Cylinder: 3, Size: 64 << 10, Write: true},
	}
	res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk}, trace)
	if err != nil {
		t.Fatal(err)
	}
	minSvc := array.Model.AvgRotationalLatency() + array.Model.TransferTime(0, 64<<10)
	if res.Makespan < 2*minSvc {
		t.Errorf("makespan %d < two service phases %d: write overlapped its read", res.Makespan, 2*minSvc)
	}
}

func TestArrayParallelismBeatsSingleDisk(t *testing.T) {
	// The same read-only trace on the array should finish far sooner than
	// serialized on one disk, because blocks stripe across four data disks.
	array := testArray(t)
	var trace []*core.Request
	for i := 0; i < 400; i++ {
		trace = append(trace, &core.Request{
			ID: uint64(i + 1), Arrival: 0, Cylinder: i, Size: 64 << 10,
		})
	}
	res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk}, trace)
	if err != nil {
		t.Fatal(err)
	}
	// Sum of service times across disks vs wall clock: parallel speedup.
	if res.Makespan >= res.BusyTime {
		t.Errorf("no parallelism: makespan %d >= total busy %d", res.Makespan, res.BusyTime)
	}
	if float64(res.BusyTime)/float64(res.Makespan) < 2 {
		t.Errorf("speedup %.2f < 2 on a 4-data-disk stripe", float64(res.BusyTime)/float64(res.Makespan))
	}
}

func TestArrayDropsExpired(t *testing.T) {
	array := testArray(t)
	trace := []*core.Request{
		{ID: 1, Arrival: 0, Deadline: 100_000, Cylinder: 0, Size: 64 << 10},
		{ID: 2, Arrival: 0, Deadline: 1, Cylinder: 4, Size: 64 << 10}, // same disk lane, hopeless
	}
	res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk, Options: Options{DropLate: true}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Logical.Served+res.Logical.Dropped != 2 {
		t.Errorf("accounting: served=%d dropped=%d", res.Logical.Served, res.Logical.Dropped)
	}
	if res.Logical.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", res.Logical.Dropped)
	}
}

func TestArrayAbandonsWritePhaseAfterMiss(t *testing.T) {
	array := testArray(t)
	// The write arrives with its deadline already expired, so both
	// read-phase ops are dropped at dispatch and the write phase must
	// never be enqueued.
	trace := []*core.Request{
		{ID: 1, Arrival: 10, Deadline: 1, Cylinder: 7, Size: 64 << 10, Write: true},
	}
	res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk, Options: Options{DropLate: true}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Logical.Dropped != 1 {
		t.Errorf("logical write should be dropped, got %+v", res.Logical)
	}
	// Only the read phase was ever enqueued.
	var totalOps uint64
	for _, n := range res.PerDiskOps {
		totalOps += n
	}
	if totalOps != 2 {
		t.Errorf("abandoned write should enqueue only the 2 read ops, got %d", totalOps)
	}
}

func TestArrayValidation(t *testing.T) {
	if _, err := RunArray(ArrayConfig{}, nil); err == nil {
		t.Error("expected error without array and scheduler factory")
	}
	array := testArray(t)
	bad := ArrayConfig{Array: array, NewScheduler: func(int) (sched.Scheduler, error) {
		return nil, errTest
	}}
	if _, err := RunArray(bad, nil); err == nil {
		t.Error("expected scheduler factory error to propagate")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

// lateWriteScenario is one logical write whose write phase straddles its
// deadline: the parity write starts at once, in time, while the data
// write queues behind three deadline-free reads on its disk and starts
// late. It returns the trace, the data disk, and the data write's start
// and completion in an unfaulted FCFS run (DropLate off, so deadlines
// change nothing in the schedule).
func lateWriteScenario(t *testing.T, array *disk.RAID5) (trace []*core.Request, dataDisk int, start, done int64) {
	t.Helper()
	const block = 7
	_, dataDisk, _ = array.Layout(block)
	trace = []*core.Request{{ID: 1, Cylinder: block, Size: array.BlockSize, Write: true}}
	for b := int64(block + 1); len(trace) < 4; b++ {
		if _, d, _ := array.Layout(b); d == dataDisk {
			trace = append(trace, &core.Request{ID: uint64(len(trace) + 1), Cylinder: int(b), Size: array.BlockSize})
		}
	}
	var parity int64
	_, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk, Options: Options{Trace: func(ev TraceEvent) {
		switch {
		case !ev.Request.Write:
		case ev.DiskID == dataDisk:
			start, done = ev.Now, ev.Now+ev.Service
		default:
			parity = ev.Now
		}
	}}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if parity >= start {
		t.Fatalf("parity write starts at %d, data write at %d: no deadline between them", parity, start)
	}
	trace[0].Deadline = (parity + start) / 2
	return trace, dataDisk, start, done
}

// A logical request misses when any of its physical ops started past its
// deadline, also an op that never completes: a late data write in flight
// when its disk fails is lost and absorbed, a late attempt that faults is
// stranded in its retry backoff by the failure. The parity write of the
// same phase started in time, so only the stranded op's own late start
// can mark the miss.
func TestLateOpLostToFailureMissesItsRequest(t *testing.T) {
	array := testArray(t)
	trace, d, start, done := lateWriteScenario(t, array)
	for _, tc := range []struct {
		name string
		plan fault.Plan
		want fault.Stats // the path the data write took
	}{
		{"in flight", fault.Plan{FailDisk: d, FailAt: start + 1},
			fault.Stats{LostInFlight: 1}},
		// Seed 43 faults the seventh completion only: the data write's.
		{"in backoff", fault.Plan{Seed: 43, TransientRate: 0.5, RetryBase: 1_000_000, FailDisk: d, FailAt: done + 1},
			fault.Stats{Transients: 1, Retries: 1}},
	} {
		res, err := RunArray(ArrayConfig{Array: array, NewScheduler: fcfsPerDisk, Options: Options{Fault: &tc.plan}}, trace)
		if err != nil {
			t.Fatal(err)
		}
		tc.want.FailedAt = tc.plan.FailAt
		if *res.Faults != tc.want || res.AbsorbedWrites != 1 {
			t.Fatalf("%s: faults %+v, %d absorbed writes; want %+v and the late write absorbed",
				tc.name, *res.Faults, res.AbsorbedWrites, tc.want)
		}
		if c := res.Logical; c.Served != 3 || c.Dropped != 1 {
			t.Errorf("%s: %d served, %d missed; want the three reads served and the write missed",
				tc.name, c.Served, c.Dropped)
		}
	}
}
