package disk

import (
	"math"
	"testing"
	"testing/quick"
)

func xp() *Model { return MustModel(QuantumXP32150Params()) }

func TestTable1Geometry(t *testing.T) {
	m := xp()
	if m.Cylinders != 3832 {
		t.Errorf("cylinders = %d, want 3832", m.Cylinders)
	}
	if len(m.Zones) != 16 {
		t.Errorf("zones = %d, want 16", len(m.Zones))
	}
	if m.SectorSize != 512 {
		t.Errorf("sector = %d, want 512", m.SectorSize)
	}
	if m.RPM != 7200 {
		t.Errorf("rpm = %d, want 7200", m.RPM)
	}
	if got := m.RevolutionTime(); got != 8333 {
		t.Errorf("revolution = %d us, want 8333", got)
	}
}

func TestCapacityNearTable1(t *testing.T) {
	m := xp()
	gb := float64(m.Capacity()) / 1e9
	if gb < 1.9 || gb > 2.3 {
		t.Errorf("capacity = %.2f GB, want ~2.1 GB", gb)
	}
}

func TestSeekCalibration(t *testing.T) {
	m := xp()
	if got := m.SeekTime(0, 0); got != 0 {
		t.Errorf("zero-distance seek = %d", got)
	}
	if got := m.SeekTime(0, m.Cylinders-1); got != m.MaxSeek {
		t.Errorf("max seek = %d, want %d", got, m.MaxSeek)
	}
	if got := m.SeekTime(100, 101); got < m.MinSeek || got > m.MinSeek+m.MinSeek/10 {
		t.Errorf("track-to-track seek = %d, want within 10%% above %d", got, m.MinSeek)
	}
	mean := m.MeanSeek()
	if math.Abs(mean-float64(m.AvgSeek)) > float64(m.AvgSeek)*0.01 {
		t.Errorf("mean seek = %.0f us, want ~%d us", mean, m.AvgSeek)
	}
}

func TestSeekSymmetricMonotone(t *testing.T) {
	m := xp()
	f := func(a, b uint16) bool {
		x := int(a) % m.Cylinders
		y := int(b) % m.Cylinders
		return m.SeekTime(x, y) == m.SeekTime(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	prev := int64(-1)
	for d := 0; d < m.Cylinders; d += 13 {
		s := m.SeekTime(0, d)
		if s < prev {
			t.Fatalf("seek not monotone at distance %d: %d < %d", d, s, prev)
		}
		prev = s
	}
}

func TestZonesCoverAllCylinders(t *testing.T) {
	m := xp()
	total := 0
	for zi, z := range m.Zones {
		total += z.Cylinders
		for c := z.FirstCyl; c < z.FirstCyl+z.Cylinders; c++ {
			if m.ZoneOf(c) != zi {
				t.Fatalf("cylinder %d maps to zone %d, want %d", c, m.ZoneOf(c), zi)
			}
		}
	}
	if total != m.Cylinders {
		t.Errorf("zones cover %d cylinders, want %d", total, m.Cylinders)
	}
}

func TestOuterZonesFaster(t *testing.T) {
	m := xp()
	outer := m.TransferTime(0, 64<<10)
	inner := m.TransferTime(m.Cylinders-1, 64<<10)
	if outer >= inner {
		t.Errorf("outer transfer %d us not faster than inner %d us", outer, inner)
	}
	if m.Zones[0].SectorsPerTrack != 128 || m.Zones[15].SectorsPerTrack != 86 {
		t.Errorf("zone SPT endpoints = %d, %d", m.Zones[0].SectorsPerTrack, m.Zones[15].SectorsPerTrack)
	}
}

func TestTransferTimeScalesLinearly(t *testing.T) {
	m := xp()
	one := m.TransferTime(0, 64<<10)
	two := m.TransferTime(0, 128<<10)
	if math.Abs(float64(two)-2*float64(one)) > 2 {
		t.Errorf("transfer not linear: %d vs 2*%d", two, one)
	}
	if m.TransferTime(0, 0) != 0 {
		t.Error("zero-size transfer should cost nothing")
	}
}

func TestAvgTransferRatePlausible(t *testing.T) {
	m := xp()
	mbps := m.AvgTransferRate() / 1e6
	if mbps < 4 || mbps > 9 {
		t.Errorf("avg transfer rate = %.2f MB/s, want mid-1990s 4-9 MB/s", mbps)
	}
}

// Every service is charged the average rotational latency: half a
// revolution, 4 166 µs at the Table 1 disk's 7 200 rpm.
func TestRotationalLatencyBounded(t *testing.T) {
	m := xp()
	if got := m.AvgRotationalLatency(); got != m.RevolutionTime()/2 || got != 4_166 {
		t.Errorf("average latency %d µs, want half of a %d µs revolution", got, m.RevolutionTime())
	}
}

func TestServiceTimeComposition(t *testing.T) {
	m := xp()
	got := m.ServiceTime(0, 1000, 64<<10)
	want := m.SeekTime(0, 1000) + m.AvgRotationalLatency() + m.TransferTime(1000, 64<<10)
	if got != want {
		t.Errorf("service = %d, want %d", got, want)
	}
}

func TestNewModelValidation(t *testing.T) {
	bad := []Params{
		{},
		func() Params { p := QuantumXP32150Params(); p.Cylinders = 1; return p }(),
		func() Params { p := QuantumXP32150Params(); p.AvgSeek = 20000; return p }(),
		func() Params { p := QuantumXP32150Params(); p.InnerSPT = 200; return p }(),
		func() Params { p := QuantumXP32150Params(); p.ZoneCount = 0; return p }(),
	}
	for i, p := range bad {
		if _, err := NewModel(p); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
}

func TestRAID5ParityRotates(t *testing.T) {
	r, err := NewRAID5(5, 64<<10, xp())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for s := int64(0); s < 5; s++ {
		p := r.ParityDisk(s)
		if p < 0 || p >= 5 {
			t.Fatalf("parity disk %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 5 {
		t.Errorf("parity visits %d disks over 5 stripes, want 5", len(seen))
	}
}

func TestRAID5ReadSingleOp(t *testing.T) {
	r, _ := NewRAID5(5, 64<<10, xp())
	for b := int64(0); b < 100; b++ {
		ops := r.Read(b)
		if len(ops) != 1 || ops[0].Write {
			t.Fatalf("read block %d: %+v", b, ops)
		}
		if ops[0].Disk == r.ParityDisk(b/4) {
			t.Fatalf("read block %d landed on parity disk", b)
		}
	}
}

func TestRAID5WriteReadModifyWrite(t *testing.T) {
	r, _ := NewRAID5(5, 64<<10, xp())
	ops := r.Write(7)
	if len(ops) != 4 {
		t.Fatalf("write ops = %d, want 4", len(ops))
	}
	reads, writes := 0, 0
	disks := map[int]bool{}
	for _, op := range ops {
		if op.Write {
			writes++
		} else {
			reads++
		}
		disks[op.Disk] = true
	}
	if reads != 2 || writes != 2 || len(disks) != 2 {
		t.Errorf("want 2 reads + 2 writes on 2 disks, got %d/%d on %d", reads, writes, len(disks))
	}
}

func TestRAID5StripeSpreadsDisks(t *testing.T) {
	r, _ := NewRAID5(5, 64<<10, xp())
	disks := map[int]bool{}
	for b := int64(0); b < 4; b++ {
		disks[r.Read(b)[0].Disk] = true
	}
	if len(disks) != 4 {
		t.Errorf("stripe 0 data lands on %d disks, want 4", len(disks))
	}
}

func TestRAID5CylinderMappingInRange(t *testing.T) {
	r, _ := NewRAID5(5, 64<<10, xp())
	max := r.Model.Capacity() / r.BlockSize
	for _, b := range []int64{0, 1, max / 2, max - 1} {
		c := r.CylinderOf(b)
		if c < 0 || c >= r.Model.Cylinders {
			t.Errorf("block %d -> cylinder %d out of range", b, c)
		}
	}
	if r.CylinderOf(0) >= r.CylinderOf(max-1) {
		t.Error("low addresses should map to outer (lower) cylinders")
	}
}

func TestRAID5Validation(t *testing.T) {
	if _, err := NewRAID5(2, 64<<10, xp()); err == nil {
		t.Error("expected error for 2 disks")
	}
	if _, err := NewRAID5(5, 0, xp()); err == nil {
		t.Error("expected error for zero block size")
	}
	if _, err := NewRAID5(5, 64<<10, nil); err == nil {
		t.Error("expected error for nil model")
	}
}
