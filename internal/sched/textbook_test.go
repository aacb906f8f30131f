package sched

import (
	"testing"

	"sfcsched/internal/core"
)

// TestTextbookHeadTravel is the classic disk-scheduling exercise as an
// external oracle: the head rests at cylinder 50 and the queue holds 82,
// 170, 43, 140, 24, 16, 190, all queued before the first dispatch. The
// totals are the textbook's, worked by hand:
//
//   - FCFS serves in queue order: 32+88+127+97+116+8+174 = 642.
//   - SSTF takes the nearest cylinder each time: 43, 24, 16, 82, 140,
//     170, 190 = 7+19+8+66+58+30+20 = 208.
//   - SCAN here is LOOK, sweeping upward first: 82 … 190, then 43, 24,
//     16 = 140+147+27 = 314.
//   - C-SCAN is C-LOOK, counting the return seek: 82 … 190, back to 16,
//     then 24, 43 = 140+174+27 = 341.
//
// The §4.2 presets must match, except EmulateSSTF: it freezes each
// request's distance from the head at insertion (all 50 here), so it
// serves 43, 24, 82, 16, 140, 170, 190 = 324, the trade-off §4.2 accepts.
func TestTextbookHeadTravel(t *testing.T) {
	const start = 50
	queue := []int{82, 170, 43, 140, 24, 16, 190}
	cases := []struct {
		s    Scheduler
		want int
	}{
		{NewFCFS(), 642},
		{NewSSTF(), 208},
		{NewSCAN(), 314},
		{NewCSCAN(), 341},
		{core.EmulateFCFS(), 642},
		{core.EmulateCSCAN(200), 341},
		{core.EmulateSSTF(), 324},
	}
	for _, tc := range cases {
		for i, cyl := range queue {
			tc.s.Add(&core.Request{ID: uint64(i + 1), Cylinder: cyl}, 0, start)
		}
		head, travel := start, 0
		for r := tc.s.Next(0, head); r != nil; r = tc.s.Next(0, head) {
			travel += max(r.Cylinder-head, head-r.Cylinder)
			head = r.Cylinder
		}
		if travel != tc.want {
			t.Errorf("%s: head travel %d, want %d", tc.s.Name(), travel, tc.want)
		}
	}
}
