package sim

import (
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

func xp() *disk.Model { return disk.MustModel(disk.QuantumXP32150Params()) }

func smallTrace() []*core.Request {
	return workload.Open{
		Seed: 7, Count: 500, MeanInterarrival: 25_000,
		Dims: 2, Levels: 8, DeadlineMin: 200_000, DeadlineMax: 400_000,
		Cylinders: 3832, Size: 64 << 10,
	}.MustGenerate()
}

func TestSSTFBeatsFCFSOnSeek(t *testing.T) {
	trace := workload.Open{
		Seed: 11, Count: 2000, MeanInterarrival: 5_000,
		Dims: 1, Levels: 8, Cylinders: 3832, Size: 16 << 10,
	}.MustGenerate()
	fcfs := MustRun(Config{Disk: xp(), Scheduler: sched.NewFCFS()}, trace)
	sstf := MustRun(Config{Disk: xp(), Scheduler: sched.NewSSTF()}, trace)
	if sstf.SeekTime >= fcfs.SeekTime {
		t.Errorf("SSTF seek %d >= FCFS seek %d", sstf.SeekTime, fcfs.SeekTime)
	}
}

func TestEDFBeatsFCFSOnMisses(t *testing.T) {
	// Moderate overload: EDF's triage matters when the disk can almost
	// keep up; under extreme overload every policy drops at capacity.
	trace := workload.Open{
		Seed: 13, Count: 2000, MeanInterarrival: 25_000,
		Dims: 1, Levels: 8, DeadlineMin: 30_000, DeadlineMax: 300_000,
		Cylinders: 3832, Size: 64 << 10,
	}.MustGenerate()
	fcfs := MustRun(Config{Disk: xp(), Scheduler: sched.NewFCFS(), Options: Options{DropLate: true}}, trace)
	edf := MustRun(Config{Disk: xp(), Scheduler: sched.NewEDF(), Options: Options{DropLate: true}}, trace)
	if fcfs.TotalMisses() == 0 {
		t.Fatal("workload not overloaded enough to test misses")
	}
	if edf.TotalMisses() >= fcfs.TotalMisses() {
		t.Errorf("EDF misses %d >= FCFS misses %d", edf.TotalMisses(), fcfs.TotalMisses())
	}
}

func TestDropLateSemantics(t *testing.T) {
	// Two requests with the same arrival; serving the first makes the
	// second hopeless. With DropLate the second is dropped unserved.
	trace := []*core.Request{
		{ID: 1, Arrival: 0, Deadline: 60_000, Cylinder: 100, Size: 64 << 10},
		{ID: 2, Arrival: 0, Deadline: 5_000, Cylinder: 3000, Size: 64 << 10},
	}
	res := MustRun(Config{Disk: xp(), Scheduler: sched.NewFCFS(), Options: Options{DropLate: true}}, trace)
	if res.Served != 1 || res.Dropped != 1 {
		t.Errorf("served=%d dropped=%d, want 1/1", res.Served, res.Dropped)
	}
	// Without DropLate it is served anyway and counted late.
	res2 := MustRun(Config{Disk: xp(), Scheduler: sched.NewFCFS()}, trace)
	if res2.Served != 2 || res2.Late != 1 {
		t.Errorf("served=%d late=%d, want 2/1", res2.Served, res2.Late)
	}
}

func TestFixedServiceNeedsNoDisk(t *testing.T) {
	trace := []*core.Request{
		{ID: 1, Arrival: 0},
		{ID: 2, Arrival: 10},
	}
	res := MustRun(Config{Scheduler: sched.NewFCFS(), FixedService: 1000}, trace)
	if res.ServiceTime != 2000 {
		t.Errorf("service time = %d, want 2000", res.ServiceTime)
	}
	if res.Makespan != 2000 {
		t.Errorf("makespan = %d, want 2000", res.Makespan)
	}
}

func TestIdleGapsAdvanceClock(t *testing.T) {
	trace := []*core.Request{
		{ID: 1, Arrival: 0},
		{ID: 2, Arrival: 1_000_000}, // long idle gap
	}
	res := MustRun(Config{Scheduler: sched.NewFCFS(), FixedService: 100}, trace)
	if res.Makespan != 1_000_100 {
		t.Errorf("makespan = %d, want 1000100", res.Makespan)
	}
}

func TestInversionSampling(t *testing.T) {
	// Low priority request served while a higher-priority one waits:
	// exactly one inversion in one dimension.
	trace := []*core.Request{
		{ID: 1, Arrival: 0, Priorities: []int{5}},
		{ID: 2, Arrival: 0, Priorities: []int{1}},
		{ID: 3, Arrival: 0, Priorities: []int{7}},
	}
	res := MustRun(Config{Scheduler: sched.NewFCFS(), FixedService: 1000, Options: Options{Dims: 1, Levels: 8}}, trace)
	// Dispatch 1: pending {2,3}: 2 is higher -> 1 inversion.
	// Dispatch 2: pending {3}: lower -> 0. Dispatch 3: none.
	if res.TotalInversions() != 1 {
		t.Errorf("inversions = %d, want 1", res.TotalInversions())
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("expected error without scheduler")
	}
	if _, err := Run(Config{Scheduler: sched.NewFCFS()}, nil); err == nil {
		t.Error("expected error without disk or fixed service")
	}
}

func TestHeadTravelAccumulates(t *testing.T) {
	trace := []*core.Request{
		{ID: 1, Arrival: 0, Cylinder: 100},
		{ID: 2, Arrival: 0, Cylinder: 300},
	}
	res := MustRun(Config{Disk: xp(), Scheduler: sched.NewFCFS()}, trace)
	if res.HeadTravel != 100+200 {
		t.Errorf("head travel = %d, want 300", res.HeadTravel)
	}
}
