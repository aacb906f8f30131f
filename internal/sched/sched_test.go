package sched

import (
	"strings"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
)

// The Cascaded-SFC scheduler must satisfy the same contract as the
// baselines so the simulator can drive either.
var _ Scheduler = (*core.Scheduler)(nil)

func testEstimator() Estimator {
	m := disk.MustModel(disk.QuantumXP32150Params())
	return m.ServiceTime
}

func rq(id uint64, cyl int, deadline int64) *core.Request {
	return &core.Request{ID: id, Cylinder: cyl, Deadline: deadline, Size: 64 << 10}
}

// TestAllSchedulersBasicContract: every row of the policy table builds,
// through NewPolicy, a scheduler that carries the row's name, no two rows
// share a name, and a fresh scheduler dispatches nothing. An unknown name
// is an error that lists the known ones. ConserveRequests and
// EachMatchesLen (property_test.go) drive the same rows with traffic.
func TestAllSchedulersBasicContract(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Policies {
		if s, err := NewPolicy(p.Name, testEstimator(), 8); seen[p.Name] || err != nil || s.Name() != p.Name || s.Next(0, 0) != nil {
			t.Errorf("row %q: repeated %v, NewPolicy = %v, %v", p.Name, seen[p.Name], s, err)
		}
		seen[p.Name] = true
	}
	if _, err := NewPolicy("bogus", nil, 8); err == nil || !strings.Contains(err.Error(), strings.Join(PolicyNames(), ", ")) {
		t.Errorf("NewPolicy(bogus) error %v does not list the known names", err)
	}
}

func TestFCFSOrder(t *testing.T) {
	s := NewFCFS()
	for i := uint64(1); i <= 4; i++ {
		s.Add(rq(i, int(i*500), 0), 0, 0)
	}
	for i := uint64(1); i <= 4; i++ {
		if r := s.Next(0, 0); r.ID != i {
			t.Fatalf("want %d, got %d", i, r.ID)
		}
	}
}

func TestSSTFPicksNearest(t *testing.T) {
	s := NewSSTF()
	s.Add(rq(1, 3000, 0), 0, 0)
	s.Add(rq(2, 1100, 0), 0, 0)
	s.Add(rq(3, 950, 0), 0, 0)
	if r := s.Next(0, 1000); r.ID != 3 {
		t.Fatalf("head 1000: want 3 (dist 50), got %d", r.ID)
	}
	if r := s.Next(0, 950); r.ID != 2 {
		t.Fatalf("head 950: want 2, got %d", r.ID)
	}
}

func TestSCANElevator(t *testing.T) {
	s := NewSCAN()
	for _, c := range []int{500, 1500, 800, 200} {
		s.Add(rq(uint64(c), c, 0), 0, 0)
	}
	head := 600
	var order []int
	for i := 0; i < 4; i++ {
		r := s.Next(0, head)
		order = append(order, r.Cylinder)
		head = r.Cylinder
	}
	want := []int{800, 1500, 500, 200} // up first, then reverse
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCSCANWrapsAround(t *testing.T) {
	s := NewCSCAN()
	for _, c := range []int{500, 1500, 800} {
		s.Add(rq(uint64(c), c, 0), 0, 0)
	}
	head := 600
	var order []int
	for i := 0; i < 3; i++ {
		r := s.Next(0, head)
		order = append(order, r.Cylinder)
		head = r.Cylinder
	}
	want := []int{800, 1500, 500} // upward sweep, wrap to lowest
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEDFOrder(t *testing.T) {
	s := NewEDF()
	s.Add(rq(1, 0, 900_000), 0, 0)
	s.Add(rq(2, 0, 100_000), 0, 0)
	s.Add(rq(3, 0, 0), 0, 0) // no deadline: last
	s.Add(rq(4, 0, 500_000), 0, 0)
	want := []uint64{2, 4, 1, 3}
	for _, id := range want {
		if r := s.Next(0, 0); r.ID != id {
			t.Fatalf("want %d, got %d", id, r.ID)
		}
	}
}

func TestSCANEDFBatchesByDeadline(t *testing.T) {
	s := NewSCANEDF(100_000)
	// Two deadline batches; within the first, scan order from head 0.
	s.Add(rq(1, 3000, 150_000), 0, 0)
	s.Add(rq(2, 1000, 160_000), 0, 0)
	s.Add(rq(3, 2000, 120_000), 0, 0)
	s.Add(rq(4, 100, 900_000), 0, 0)
	head := 0
	var order []uint64
	for i := 0; i < 4; i++ {
		r := s.Next(0, head)
		order = append(order, r.ID)
		head = r.Cylinder
	}
	want := []uint64{2, 3, 1, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFDSCANPrefersFeasible(t *testing.T) {
	s := NewFDSCAN(testEstimator())
	// Request 1's deadline is already hopeless; request 2 is feasible.
	s.Add(rq(1, 3000, 1_000), 0, 0)
	s.Add(rq(2, 500, 500_000), 0, 0)
	if r := s.Next(0, 0); r.ID != 2 {
		t.Fatalf("want feasible request 2, got %d", r.ID)
	}
}

func TestFDSCANServesEnRoute(t *testing.T) {
	s := NewFDSCAN(testEstimator())
	s.Add(rq(1, 3000, 200_000), 0, 0) // earliest feasible target
	s.Add(rq(2, 1000, 900_000), 0, 0) // en route to it
	if r := s.Next(0, 0); r.ID != 2 {
		t.Fatalf("want en-route request 2, got %d", r.ID)
	}
}

func TestFDSCANFallbackWhenNoneFeasible(t *testing.T) {
	s := NewFDSCAN(testEstimator())
	// Neither deadline is reachable; the sweep targets the earliest one
	// (request 2 at cylinder 3500) and serves request 1 en route to it.
	s.Add(rq(1, 3000, 2_000), 0, 0)
	s.Add(rq(2, 3500, 1_000), 0, 0)
	if r := s.Next(0, 0); r.ID != 1 {
		t.Fatalf("want en-route request 1, got %d", r.ID)
	}
	if r := s.Next(0, 3000); r.ID != 2 {
		t.Fatalf("want target request 2, got %d", r.ID)
	}
}

func TestSCANRTInsertsInScanOrder(t *testing.T) {
	s := NewSCANRT(testEstimator())
	s.Add(rq(1, 2000, 5_000_000), 0, 0)
	s.Add(rq(2, 1000, 5_000_000), 0, 0) // fits ahead of 1 in scan order
	if r := s.Next(0, 0); r.ID != 2 {
		t.Fatalf("want scan-ordered request 2, got %d", r.ID)
	}
}

func TestSCANRTAppendsWhenInfeasible(t *testing.T) {
	s := NewSCANRT(testEstimator())
	// Request 1 is tight: any insertion ahead of it would miss it.
	s.Add(rq(1, 2000, 16_000), 0, 0)
	s.Add(rq(2, 1000, 5_000_000), 0, 0)
	if r := s.Next(0, 0); r.ID != 1 {
		t.Fatalf("infeasible insertion should append: want 1 first, got %d", r.ID)
	}
}

func TestSSEDOBalancesSeekAndDeadline(t *testing.T) {
	s := NewSSEDO(5, 1.5)
	// Earliest deadline is far away; a slightly later deadline is at the
	// head. The close one should win under the rank penalty.
	s.Add(rq(1, 3800, 400_000), 0, 0)
	s.Add(rq(2, 10, 450_000), 0, 0)
	if r := s.Next(0, 0); r.ID != 2 {
		t.Fatalf("want near request 2, got %d", r.ID)
	}
	// But a much earlier deadline wins even when far.
	s2 := NewSSEDO(5, 1.5)
	s2.Add(rq(1, 3800, 50_000), 0, 0)
	s2.Add(rq(2, 3700, 450_000), 0, 0)
	if r := s2.Next(0, 3790); r.ID != 1 {
		t.Fatalf("similar seeks: want earlier deadline 1, got %d", r.ID)
	}
}

func TestSSEDVBlendsSlackAndSeek(t *testing.T) {
	s := NewSSEDV(5, 0.8)
	s.Add(rq(1, 2000, 100_000), 0, 0) // tight deadline, far
	s.Add(rq(2, 10, 2_000_000), 0, 0) // slack deadline, near
	if r := s.Next(0, 0); r.ID != 1 {
		t.Fatalf("alpha=0.8 should favor slack: want 1, got %d", r.ID)
	}
	s2 := NewSSEDV(5, 0.01)
	s2.Add(rq(1, 2000, 100_000), 0, 0)
	s2.Add(rq(2, 10, 2_000_000), 0, 0)
	if r := s2.Next(0, 0); r.ID != 2 {
		t.Fatalf("alpha~0 should favor seek: want 2, got %d", r.ID)
	}
}

func TestMultiQueueServesHighestLevel(t *testing.T) {
	s := NewMultiQueue(4)
	s.Add(&core.Request{ID: 1, Priorities: []int{3}, Cylinder: 10}, 0, 0)
	s.Add(&core.Request{ID: 2, Priorities: []int{1}, Cylinder: 3000}, 0, 0)
	s.Add(&core.Request{ID: 3, Priorities: []int{1}, Cylinder: 500}, 0, 0)
	// Level 1 first; within it, scan order from head 0: 500 then 3000.
	want := []uint64{3, 2, 1}
	head := 0
	for _, id := range want {
		r := s.Next(0, head)
		if r.ID != id {
			t.Fatalf("want %d, got %d", id, r.ID)
		}
		head = r.Cylinder
	}
}

func TestMultiQueueClampsLevels(t *testing.T) {
	s := NewMultiQueue(4)
	s.Add(&core.Request{ID: 1, Priorities: []int{99}}, 0, 0)
	s.Add(&core.Request{ID: 2}, 0, 0) // no priorities -> level 0
	if r := s.Next(0, 0); r.ID != 2 {
		t.Fatalf("want clamped level-0 request 2, got %d", r.ID)
	}
}

func TestBUCKETServesHighestValueThenEDF(t *testing.T) {
	s := NewBUCKET()
	s.Add(&core.Request{ID: 1, Value: 1, Deadline: 100}, 0, 0)
	s.Add(&core.Request{ID: 2, Value: 9, Deadline: 900}, 0, 0)
	s.Add(&core.Request{ID: 3, Value: 9, Deadline: 300}, 0, 0)
	want := []uint64{3, 2, 1}
	for _, id := range want {
		if r := s.Next(0, 0); r.ID != id {
			t.Fatalf("want %d, got %d", id, r.ID)
		}
	}
}

func TestKamelEvictsLowestPriority(t *testing.T) {
	s := NewKamel(testEstimator())
	// A low-priority request sits in the queue; a tight high-priority
	// arrival cannot fit behind it, so the low one is parked at the tail.
	lo := &core.Request{ID: 1, Priorities: []int{7}, Cylinder: 1000, Deadline: 5_000_000, Size: 64 << 10}
	hi := &core.Request{ID: 2, Priorities: []int{0}, Cylinder: 2000, Deadline: 16_000, Size: 64 << 10}
	s.Add(lo, 0, 0)
	s.Add(hi, 0, 0)
	if r := s.Next(0, 0); r.ID != 2 {
		t.Fatalf("want high-priority 2 first, got %d", r.ID)
	}
	if r := s.Next(0, 2000); r.ID != 1 {
		t.Fatalf("want parked 1 next, got %d", r.ID)
	}
}

func TestKamelKeepsScanOrderWhenFeasible(t *testing.T) {
	s := NewKamel(testEstimator())
	s.Add(&core.Request{ID: 1, Priorities: []int{0}, Cylinder: 2000, Deadline: 5_000_000, Size: 64 << 10}, 0, 0)
	s.Add(&core.Request{ID: 2, Priorities: []int{7}, Cylinder: 1000, Deadline: 5_000_000, Size: 64 << 10}, 0, 0)
	// Both feasible: scan order wins despite priorities.
	if r := s.Next(0, 0); r.ID != 2 {
		t.Fatalf("want scan-ordered 2 first, got %d", r.ID)
	}
}

// Regression: removeAt must nil out the vacated tail slot so the slice's
// spare capacity does not pin served requests in memory for the rest of a
// long trace.
func TestRemoveAtClearsVacatedSlot(t *testing.T) {
	q := &queue{}
	a, b, c := rq(1, 0, 0), rq(2, 0, 0), rq(3, 0, 0)
	q.add(a)
	q.add(b)
	q.add(c)
	if got := q.removeAt(1); got != b {
		t.Fatalf("removeAt(1) = %v, want request 2", got)
	}
	if q.Len() != 2 || q.reqs[0] != a || q.reqs[1] != c {
		t.Fatalf("queue after removal = %v, want [1 3]", q.reqs)
	}
	if tail := q.reqs[:3][2]; tail != nil {
		t.Errorf("vacated slot still references request %d", tail.ID)
	}
}
