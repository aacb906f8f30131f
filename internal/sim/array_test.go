package sim

import (
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
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

func TestArrayDeterministic(t *testing.T) {
	array := testArray(t)
	mk := func() []*core.Request {
		trace := workload.Streams{
			Seed: 3, Users: 20, Duration: 5_000_000,
			BitRate: 1e6, BlockSize: 64 << 10, Levels: 8,
			DeadlineMin: 500_000, DeadlineMax: 900_000,
			Cylinders: 10000, WriteFrac: 0.3, Burst: 2,
		}.MustGenerate()
		return trace
	}
	cfg := ArrayConfig{Array: array, NewScheduler: fcfsPerDisk, Options: Options{DropLate: true, Dims: 1, Levels: 8}}
	a, err := RunArray(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunArray(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.SeekTime != b.SeekTime ||
		a.Logical.Served != b.Logical.Served || a.Logical.Dropped != b.Logical.Dropped {
		t.Error("identical array runs diverged")
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
