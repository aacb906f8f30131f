package disk

import (
	"reflect"
	"testing"
)

// Table-driven boundary tests for the geometry maths: first/last cylinder,
// zone seams, zero-size transfers, and RAID-5 stripe edges. These are the
// coordinates the simulator leans on (out-of-range cylinders clamp to
// 0 and Cylinders-1; rebuild walks per-disk blocks from 0), so the
// boundaries must hold exactly.

func TestSeekTimeEdges(t *testing.T) {
	m := MustModel(QuantumXP32150Params())
	last := m.Cylinders - 1
	cases := []struct {
		name     string
		from, to int
		want     int64 // exact expectation; -1 = only check bounds
	}{
		{"zero distance at first cylinder", 0, 0, 0},
		{"zero distance at last cylinder", last, last, 0},
		{"full stroke outward", 0, last, m.MaxSeek},
		{"full stroke inward", last, 0, m.MaxSeek},
		{"single track", 0, 1, -1},
		{"single track at inner edge", last, last - 1, -1},
	}
	for _, tc := range cases {
		got := m.SeekTime(tc.from, tc.to)
		if tc.want >= 0 {
			if got != tc.want {
				t.Errorf("%s: SeekTime(%d,%d) = %d, want %d", tc.name, tc.from, tc.to, got, tc.want)
			}
			continue
		}
		if got < m.MinSeek || got > m.MaxSeek {
			t.Errorf("%s: SeekTime(%d,%d) = %d outside [%d,%d]",
				tc.name, tc.from, tc.to, got, m.MinSeek, m.MaxSeek)
		}
	}
}

func TestSeekTimePanicsOutOfRange(t *testing.T) {
	m := MustModel(QuantumXP32150Params())
	for _, cyl := range []int{-1, m.Cylinders} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SeekTime(0, %d) did not panic", cyl)
				}
			}()
			m.SeekTime(0, cyl)
		}()
	}
}

func TestTransferTimeEdges(t *testing.T) {
	m := MustModel(QuantumXP32150Params())
	last := m.Cylinders - 1
	cases := []struct {
		name string
		cyl  int
		size int64
		want int64 // -1 = only check positivity
	}{
		{"zero size at outer edge", 0, 0, 0},
		{"zero size at inner edge", last, 0, 0},
		{"negative size", 0, -4096, 0},
		{"one full track at outer edge", 0, m.TrackCapacity(0), m.RevolutionTime()},
		{"one full track at inner edge", last, m.TrackCapacity(last), m.RevolutionTime()},
		{"one sector", 0, int64(m.SectorSize), -1},
	}
	for _, tc := range cases {
		got := m.TransferTime(tc.cyl, tc.size)
		if tc.want >= 0 {
			if got != tc.want {
				t.Errorf("%s: TransferTime(%d,%d) = %d, want %d", tc.name, tc.cyl, tc.size, got, tc.want)
			}
		} else if got <= 0 {
			t.Errorf("%s: TransferTime(%d,%d) = %d, want > 0", tc.name, tc.cyl, tc.size, got)
		}
	}
	// Inner zones hold fewer sectors, so the same bytes take longer there.
	if in, out := m.TransferTime(last, 64<<10), m.TransferTime(0, 64<<10); in <= out {
		t.Errorf("inner-zone transfer (%d) not slower than outer (%d)", in, out)
	}
}

func TestZoneOfBoundaries(t *testing.T) {
	m := MustModel(QuantumXP32150Params())
	for z, zone := range m.Zones {
		first, lastCyl := zone.FirstCyl, zone.FirstCyl+zone.Cylinders-1
		if got := m.ZoneOf(first); got != z {
			t.Errorf("ZoneOf(%d) = %d, want %d (zone start)", first, got, z)
		}
		if got := m.ZoneOf(lastCyl); got != z {
			t.Errorf("ZoneOf(%d) = %d, want %d (zone end)", lastCyl, got, z)
		}
		if z > 0 {
			if got := m.ZoneOf(first - 1); got != z-1 {
				t.Errorf("ZoneOf(%d) = %d, want %d (before seam)", first-1, got, z-1)
			}
		}
	}
	lastZone := m.Zones[len(m.Zones)-1]
	if end := lastZone.FirstCyl + lastZone.Cylinders; end != m.Cylinders {
		t.Errorf("last zone ends at %d, want %d", end, m.Cylinders)
	}
	for _, cyl := range []int{-1, m.Cylinders} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ZoneOf(%d) did not panic", cyl)
				}
			}()
			m.ZoneOf(cyl)
		}()
	}
}

func TestRAID5ParityAndLayoutAtStripeBoundaries(t *testing.T) {
	m := MustModel(QuantumXP32150Params())
	r, err := NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	// Left-symmetric rotation: stripe s parks parity on disk 4-(s mod 5).
	for s, want := range map[int64]int{0: 4, 1: 3, 2: 2, 3: 1, 4: 0, 5: 4} {
		if got := r.ParityDisk(s); got != want {
			t.Errorf("ParityDisk(%d) = %d, want %d", s, got, want)
		}
	}
	cases := []struct {
		name       string
		block      int64
		wantStripe int64
		wantDisk   int
	}{
		{"first block", 0, 0, 0},
		{"last lane of stripe 0", 3, 0, 3},
		{"first lane of stripe 1", 4, 1, 0},
		{"lane past parity in stripe 1", 7, 1, 4}, // parity on 3: lane 3 skips to 4
		{"first lane of stripe 4 (parity on 0)", 16, 4, 1},
		{"wraparound stripe 5", 20, 5, 0},
	}
	for _, tc := range cases {
		s, d, cyl := r.Layout(tc.block)
		if s != tc.wantStripe || d != tc.wantDisk {
			t.Errorf("%s: Layout(%d) = stripe %d disk %d, want stripe %d disk %d",
				tc.name, tc.block, s, d, tc.wantStripe, tc.wantDisk)
		}
		if d == r.ParityDisk(s) {
			t.Errorf("%s: data disk %d collides with parity of stripe %d", tc.name, d, s)
		}
		if cyl < 0 || cyl >= m.Cylinders {
			t.Errorf("%s: cylinder %d out of range", tc.name, cyl)
		}
	}
	// The very last addressable block must still map to a legal cylinder.
	lastBlock := r.MaxBlocks() - 1
	if s, d, cyl := r.Layout(lastBlock); cyl < 0 || cyl >= m.Cylinders || d == r.ParityDisk(s) {
		t.Errorf("Layout(MaxBlocks-1=%d) = stripe %d disk %d cyl %d: out of range or on parity",
			lastBlock, s, d, cyl)
	}
	if ops := r.Read(lastBlock); len(ops) != 1 {
		t.Errorf("Read(MaxBlocks-1) produced %d ops, want 1", len(ops))
	}
}

func TestRAID5DegradedOpShapes(t *testing.T) {
	m := MustModel(QuantumXP32150Params())
	r, err := NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	const block = 7 // stripe 1, data disk 4, parity disk 3
	s, d, cyl := r.Layout(block)
	p := r.ParityDisk(s)

	// Survivor read is untouched by an unrelated failure.
	if got, want := r.DegradedRead(block, 0), r.Read(block); !reflect.DeepEqual(got, want) {
		t.Errorf("DegradedRead survivor path = %+v, want %+v", got, want)
	}
	// Reading the failed disk's block fans out to every survivor.
	recon := r.DegradedRead(block, d)
	if len(recon) != r.Disks-1 {
		t.Fatalf("reconstruction read produced %d ops, want %d", len(recon), r.Disks-1)
	}
	seen := map[int]bool{}
	for _, op := range recon {
		if op.Disk == d || op.Write || op.Cylinder != cyl || seen[op.Disk] {
			t.Errorf("bad reconstruction op %+v (failed disk %d, cyl %d)", op, d, cyl)
		}
		seen[op.Disk] = true
	}

	// Data disk down: N-2 peer reads plus one parity write, data absorbed.
	dw := r.DegradedWrite(block, d)
	if len(dw) != r.Disks-1 {
		t.Fatalf("data-down degraded write produced %d ops, want %d", len(dw), r.Disks-1)
	}
	writes := 0
	for _, op := range dw {
		if op.Disk == d {
			t.Errorf("degraded write touched the failed disk: %+v", op)
		}
		if op.Write {
			writes++
			if op.Disk != p {
				t.Errorf("degraded write's write landed on disk %d, want parity %d", op.Disk, p)
			}
		}
	}
	if writes != 1 {
		t.Errorf("data-down degraded write has %d writes, want 1", writes)
	}

	// Parity disk down: a single unprotected data write.
	pw := r.DegradedWrite(block, p)
	if len(pw) != 1 || !pw[0].Write || pw[0].Disk != d {
		t.Errorf("parity-down degraded write = %+v, want one write on disk %d", pw, d)
	}

	// Unrelated disk down: the normal read-modify-write.
	if got, want := r.DegradedWrite(block, 0), r.Write(block); !reflect.DeepEqual(got, want) {
		t.Errorf("unrelated-failure degraded write = %+v, want %+v", got, want)
	}
}

func TestRAID5RebuildStripeEdges(t *testing.T) {
	m := MustModel(QuantumXP32150Params())
	r, err := NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	lastDB := m.Capacity()/r.BlockSize - 1 // last per-disk block
	for _, db := range []int64{0, lastDB} {
		for failed := 0; failed < r.Disks; failed++ {
			ops := r.RebuildStripe(db, failed)
			if len(ops) != r.Disks-1 {
				t.Fatalf("RebuildStripe(%d, %d) produced %d ops, want %d", db, failed, len(ops), r.Disks-1)
			}
			wantCyl := r.CylinderOf(db)
			for _, op := range ops {
				if op.Disk == failed || op.Write || op.Cylinder != wantCyl || op.Size != r.BlockSize {
					t.Errorf("RebuildStripe(%d, %d): bad op %+v, want read of cyl %d", db, failed, op, wantCyl)
				}
			}
		}
	}
}
