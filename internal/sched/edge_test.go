package sched

import (
	"testing"

	"sfcsched/internal/core"
)

func TestSCANEDFZeroQuantumIsEDFWithSeekTies(t *testing.T) {
	s := NewSCANEDF(0)
	s.Add(rq(1, 3000, 500_000), 0, 0)
	s.Add(rq(2, 100, 100_000), 0, 0)
	if r := s.Next(0, 0); r.ID != 2 {
		t.Fatalf("exact deadlines should order first: got %d", r.ID)
	}
	// Identical deadlines: scan order breaks the tie.
	s2 := NewSCANEDF(0)
	s2.Add(rq(1, 3000, 500_000), 0, 0)
	s2.Add(rq(2, 100, 500_000), 0, 0)
	if r := s2.Next(0, 0); r.ID != 2 {
		t.Fatalf("tie should break by scan position: got %d", r.ID)
	}
}

func TestSSEDOWindowLargerThanQueue(t *testing.T) {
	// Two queued, fewer than the ssedWindow candidates.
	s := NewSSEDO()
	s.Add(rq(1, 100, 900_000), 0, 0)
	s.Add(rq(2, 200, 100_000), 0, 0)
	if r := s.Next(0, 150); r == nil {
		t.Fatal("oversized window must still dispatch")
	}
	if s.Next(0, 150) == nil || s.Next(0, 150) != nil {
		t.Fatal("queue accounting broken")
	}
}

func TestSCANRTHonorsQueueFrontOrder(t *testing.T) {
	// Whatever the insert decisions, dispatch is strictly front-to-back;
	// re-adding after a partial drain keeps the scan structure coherent.
	s := NewSCANRT(testEstimator())
	for _, c := range []int{500, 1500, 1000} {
		s.Add(rq(uint64(c), c, 60_000_000), 0, 0)
	}
	first := s.Next(0, 0)
	if first.ID != 500 {
		t.Fatalf("scan front should be 500, got %d", first.ID)
	}
	s.Add(rq(700, 700, 60_000_000), 0, first.Cylinder)
	if r := s.Next(0, first.Cylinder); r.ID != 700 {
		t.Fatalf("want in-scan insertion 700, got %d", r.ID)
	}
}

func TestKamelMaxEvictionsBounds(t *testing.T) {
	s := NewKamel(testEstimator())
	// Flood with tight deadlines: the eviction loop must stop at
	// maxEvictions and conserve all requests even when feasibility is
	// hopeless.
	for i := 0; i < 40; i++ {
		s.Add(&core.Request{
			ID: uint64(i + 1), Cylinder: (i * 379) % 3832,
			Deadline: 1_000, Size: 64 << 10,
			Priorities: []int{i % 8},
		}, 0, 0)
	}
	if s.Len() != 40 {
		t.Fatalf("Len = %d, want 40", s.Len())
	}
	seen := 0
	head := 0
	for r := s.Next(0, head); r != nil; r = s.Next(0, head) {
		seen++
		head = r.Cylinder
	}
	if seen != 40 {
		t.Errorf("dispatched %d of 40", seen)
	}
}

func TestFDSCANSingleRequest(t *testing.T) {
	s := NewFDSCAN(testEstimator())
	s.Add(rq(1, 2000, 0), 0, 0) // no deadline at all
	if r := s.Next(0, 0); r == nil || r.ID != 1 {
		t.Fatal("single deadline-less request must dispatch")
	}
}
