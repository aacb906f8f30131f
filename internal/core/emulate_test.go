package core

import (
	"testing"

	"sfcsched/internal/stats"
)

func drainFunc(s *Scheduler, head int) []uint64 {
	var ids []uint64
	for r := s.Next(0, head); r != nil; r = s.Next(0, head) {
		ids = append(ids, r.ID)
		if r.Cylinder >= 0 {
			head = r.Cylinder
		}
	}
	return ids
}

func TestNewValueSchedulerValidation(t *testing.T) {
	full := DispatcherConfig{Mode: FullyPreemptive}
	if _, err := NewValueScheduler("x", nil, 0, full); err == nil {
		t.Error("expected error for nil valuer")
	}
	if _, err := NewValueScheduler("x", ValueFunc(nil), 0, full); err == nil {
		t.Error("expected error for nil value function")
	}
	if _, err := NewValueScheduler("x", EmulateEDF().v, 0, DispatcherConfig{Mode: PreemptMode(99)}); err == nil {
		t.Error("expected the dispatcher's error for an unknown preempt mode")
	}
}

func TestEmulateFCFSOrder(t *testing.T) {
	s := EmulateFCFS()
	for i := uint64(1); i <= 10; i++ {
		s.Add(&Request{ID: i}, 0, 0)
	}
	ids := drainFunc(s, 0)
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("order = %v", ids)
		}
	}
}

func TestEmulateEDFOrder(t *testing.T) {
	s := EmulateEDF()
	rng := stats.NewRNG(1)
	deadlines := map[uint64]int64{}
	for i := uint64(1); i <= 50; i++ {
		d := int64(rng.Uint64n(1 << 30))
		deadlines[i] = d
		s.Add(&Request{ID: i, Deadline: d}, 0, 0)
	}
	s.Add(&Request{ID: 99}, 0, 0) // no deadline: dead last
	ids := drainFunc(s, 0)
	if ids[len(ids)-1] != 99 {
		t.Errorf("deadline-less request should dispatch last, got %v", ids[len(ids)-1])
	}
	prev := int64(-1)
	for _, id := range ids[:len(ids)-1] {
		if deadlines[id] < prev {
			t.Fatalf("deadline order violated at %d", id)
		}
		prev = deadlines[id]
	}
}

func TestEmulateSSTFPicksNearestAtInsertion(t *testing.T) {
	s := EmulateSSTF()
	s.Add(&Request{ID: 1, Cylinder: 900}, 0, 1000)
	s.Add(&Request{ID: 2, Cylinder: 990}, 0, 1000)
	s.Add(&Request{ID: 3, Cylinder: 2000}, 0, 1000)
	want := []uint64{2, 1, 3}
	ids := drainFunc(s, 1000)
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order = %v, want %v", ids, want)
		}
	}
}

func TestEmulateCSCANSweepOrder(t *testing.T) {
	s := EmulateCSCAN(1000)
	s.Add(&Request{ID: 1, Cylinder: 800}, 0, 100)
	s.Add(&Request{ID: 2, Cylinder: 50}, 0, 100)
	s.Add(&Request{ID: 3, Cylinder: 400}, 0, 100)
	want := []uint64{3, 1, 2}
	ids := drainFunc(s, 100)
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order = %v, want %v", ids, want)
		}
	}
}

func TestEmulateMultiQueueLevelsThenFIFO(t *testing.T) {
	s := EmulateMultiQueue(4)
	s.Add(&Request{ID: 1, Priorities: []int{2}}, 0, 0)
	s.Add(&Request{ID: 2, Priorities: []int{0}}, 0, 0)
	s.Add(&Request{ID: 3, Priorities: []int{0}}, 0, 0)
	s.Add(&Request{ID: 4, Priorities: []int{3}}, 0, 0)
	want := []uint64{2, 3, 1, 4}
	ids := drainFunc(s, 0)
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order = %v, want %v", ids, want)
		}
	}
}

func TestFuncSchedulerContract(t *testing.T) {
	s := EmulateFCFS()
	if s.Next(0, 0) != nil {
		t.Error("empty scheduler should return nil")
	}
	s.Add(&Request{ID: 1}, 0, 0)
	s.Add(&Request{ID: 2}, 0, 0)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	n := 0
	s.Each(func(*Request) { n++ })
	if n != 2 {
		t.Errorf("Each visited %d", n)
	}
}
