package sim

import (
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// smallTraceCopy clones a trace so scheduler runs cannot alias requests.
func smallTraceCopy(trace []*core.Request) []*core.Request {
	out := make([]*core.Request, len(trace))
	for i, r := range trace {
		c := *r
		out[i] = &c
	}
	return out
}

func TestOutOfRangeCylindersClamped(t *testing.T) {
	trace := []*core.Request{
		{ID: 1, Arrival: 0, Cylinder: -100},
		{ID: 2, Arrival: 0, Cylinder: 1 << 20},
	}
	res := MustRun(Config{Disk: xp(), Scheduler: sched.NewFCFS()}, trace)
	if res.Served != 2 {
		t.Errorf("clamped cylinders should still serve: %d", res.Served)
	}
}

func TestZeroLengthTrace(t *testing.T) {
	res := MustRun(Config{Disk: xp(), Scheduler: sched.NewFCFS()}, nil)
	if res.Arrived != 0 || res.Makespan != 0 {
		t.Errorf("empty trace: %+v", res)
	}
}

func TestCollectorSizingFromTrace(t *testing.T) {
	trace := []*core.Request{
		{ID: 1, Arrival: 0, Priorities: []int{2, 5}},
		{ID: 2, Arrival: 0, Priorities: []int{7}},
	}
	res := MustRun(Config{Scheduler: sched.NewFCFS(), FixedService: 10}, trace)
	if res.Dims() != 2 {
		t.Errorf("inferred dims = %d, want 2", res.Dims())
	}
	if res.Levels() != 8 {
		t.Errorf("inferred levels = %d, want 8 (max level 7)", res.Levels())
	}
}

func TestArrayMixedWorkloadConservation(t *testing.T) {
	array := testArray(t)
	trace, err := workload.Streams{
		Seed: 5, Users: 30, Duration: 8_000_000,
		BitRate: 1.5e6, BlockSize: 64 << 10, Levels: 8,
		DeadlineMin: 400_000, DeadlineMax: 900_000,
		Cylinders: int(array.MaxBlocks() / 4), WriteFrac: 0.4, Burst: 2,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunArray(ArrayConfig{
		Array: array, NewScheduler: fcfsPerDisk,
		Options: Options{DropLate: true, Dims: 1, Levels: 8},
	}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Logical.Served+res.Logical.Dropped != uint64(len(trace)) {
		t.Errorf("logical conservation: %d + %d != %d",
			res.Logical.Served, res.Logical.Dropped, len(trace))
	}
	if res.SeekTime > res.BusyTime {
		t.Errorf("seek %d exceeds busy %d", res.SeekTime, res.BusyTime)
	}
}
