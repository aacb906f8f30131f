package sched

import (
	"math"
	"runtime"
	"slices"
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

// A deadline that the estimate meets to the nanosecond is feasible, and
// one a nanosecond sooner is not. Request 1 is the earliest deadline,
// above the head; request 2 is feasible, later and below it, so the target
// decides which of the two is served.
func TestFDSCANDeadlineMetExactlyIsFeasible(t *testing.T) {
	est := testEstimator()
	const now, head = 10_000, 1000
	exact := now + est(head, 2000, 64<<10)
	for _, c := range []struct {
		deadline int64
		want     uint64
	}{{exact, 1}, {exact - 1, 2}} {
		s := NewFDSCAN(est)
		s.Add(rq(1, 2000, c.deadline), now, head)
		s.Add(rq(2, 500, 10_000_000), now, head)
		if r := s.Next(now, head); r.ID != c.want {
			t.Errorf("deadline now+est%+d: served %d, want %d", c.deadline-exact, r.ID, c.want)
		}
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

// A deadline is met when service starts by it, so an arrival that makes a
// queued request start exactly at its deadline may take its scan
// position, and one that makes it start a microsecond late may not. There
// SCAN-RT appends the arrival, and Kamel parks the lowest-priority queued
// request (3), then the one the arrival would make late (1).
func TestFeasibilityBoundaryDeadlineMetExactly(t *testing.T) {
	est := testEstimator()
	const now, head = 10_000, 0
	exact := now + est(head, 1000, 64<<10) // request 1's start behind arrival 2
	for _, c := range []struct {
		s        Scheduler
		deadline int64
		want     []uint64
	}{
		{NewSCANRT(est), exact, []uint64{2, 1, 3}},
		{NewSCANRT(est), exact - 1, []uint64{1, 3, 2}},
		{NewKamel(est), exact, []uint64{2, 1, 3}},
		{NewKamel(est), exact - 1, []uint64{2, 3, 1}},
	} {
		c.s.Add(&core.Request{ID: 1, Priorities: []int{0}, Cylinder: 2000, Deadline: c.deadline, Size: 64 << 10}, now, head)
		c.s.Add(&core.Request{ID: 3, Priorities: []int{7}, Cylinder: 3000, Deadline: 10_000_000, Size: 64 << 10}, now, head)
		c.s.Add(rq(2, 1000, 10_000_000), now, head)
		var got []uint64
		for h := head; c.s.Len() > 0; {
			r := c.s.Next(now, h)
			got, h = append(got, r.ID), r.Cylinder
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s, deadline exact%+d: served %v, want %v", c.s.Name(), c.deadline-exact, got, c.want)
		}
	}
}

func TestSSEDOBalancesSeekAndDeadline(t *testing.T) {
	s := NewSSEDO()
	// Earliest deadline is far away; a slightly later deadline is at the
	// head. The close one should win under the rank penalty.
	s.Add(rq(1, 3800, 400_000), 0, 0)
	s.Add(rq(2, 10, 450_000), 0, 0)
	if r := s.Next(0, 0); r.ID != 2 {
		t.Fatalf("want near request 2, got %d", r.ID)
	}
	// But a much earlier deadline wins even when far.
	s2 := NewSSEDO()
	s2.Add(rq(1, 3800, 50_000), 0, 0)
	s2.Add(rq(2, 3700, 450_000), 0, 0)
	if r := s2.Next(0, 3790); r.ID != 1 {
		t.Fatalf("similar seeks: want earlier deadline 1, got %d", r.ID)
	}
}

func TestSSEDVBlendsSlackAndSeek(t *testing.T) {
	s := NewSSEDV()
	s.Add(rq(1, 2000, 100_000), 0, 0) // tight deadline, far
	s.Add(rq(2, 10, 2_000_000), 0, 0) // slack deadline, near
	if r := s.Next(0, 0); r.ID != 1 {
		t.Fatalf("a much tighter deadline should win: want 1, got %d", r.ID)
	}
	// Slacks 5% apart: the seek term decides (0.96 against 0.80).
	s2 := NewSSEDV()
	s2.Add(rq(1, 2000, 1_000_000), 0, 0)
	s2.Add(rq(2, 10, 1_050_000), 0, 0)
	if r := s2.Next(0, 0); r.ID != 2 {
		t.Fatalf("similar slacks should favor seek: want 2, got %d", r.ID)
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

// One queue holds every level, so the level count costs nothing at
// construction: the largest count builds with the allocations, and about
// the bytes, of eight levels, and still serves level 0 first.
func TestMultiQueueBuildsInConstantSpace(t *testing.T) {
	build := func(levels int) (allocs float64, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(10, func() { NewMultiQueue(levels) })
		runtime.ReadMemStats(&after)
		return allocs, after.TotalAlloc - before.TotalAlloc
	}
	small, smallBytes := build(8)
	huge, hugeBytes := build(math.MaxInt)
	if huge != small || hugeBytes > smallBytes+4096 {
		t.Errorf("NewMultiQueue(MaxInt): %v allocs, %d B; NewMultiQueue(8): %v allocs, %d B", huge, hugeBytes, small, smallBytes)
	}
	s := NewMultiQueue(math.MaxInt)
	s.Add(&core.Request{ID: 1, Priorities: []int{math.MaxInt - 1}}, 0, 0)
	s.Add(&core.Request{ID: 2, Priorities: []int{0}, Cylinder: 9}, 0, 0)
	if r := s.Next(0, 0); r.ID != 2 {
		t.Fatalf("want level-0 request 2, got %d", r.ID)
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

// TestPoliciesAddNextAllocateNothing holds every steady row (the policy
// table and the cascade) at depths 22 and 2 048, the way BenchmarkPolicies
// and BenchmarkPoliciesDeep do, and requires an Add and a Next to allocate
// nothing once the queue's slice has reached its size.
func TestPoliciesAddNextAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, p := range steadyRows() {
		for _, depth := range []int{benchDepth, 2048} {
			d := newSteadyDriver(p.New(testEstimator(), 8), depth)
			for range 2 * depth {
				d.step(t)
			}
			if a := testing.AllocsPerRun(100, func() { d.step(t) }); a != 0 {
				t.Errorf("%s at depth %d: %v allocations per Add+Next, want 0", p.Name, depth, a)
			}
		}
	}
}
