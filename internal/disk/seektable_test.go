package disk

import (
	"math"
	"testing"
)

// SeekTime answers from a table; these tests hold the table to the curves
// it tabulates, bit for bit, at every distance a model has.

// closedFormSeek is the calibrated power curve as the model documents it:
// MinSeek + (MaxSeek-MinSeek) * (d/(C-1))^gamma for d >= 1, and 0 at d = 0.
func closedFormSeek(m *Model, d int) int64 {
	if d == 0 {
		return 0
	}
	u := float64(d) / float64(m.Cylinders-1)
	return m.MinSeek + int64(float64(m.MaxSeek-m.MinSeek)*math.Pow(u, m.gamma))
}

// checkSeekTable compares SeekTime with curve at every distance, measured
// from both ends of the disk and in both directions.
func checkSeekTable(t *testing.T, m *Model, what string, curve func(d int) int64) {
	t.Helper()
	last := m.Cylinders - 1
	for d := 0; d <= last; d++ {
		want := curve(d)
		for _, pair := range [][2]int{{0, d}, {d, 0}, {last, last - d}, {last - d, last}} {
			if got := m.SeekTime(pair[0], pair[1]); got != want {
				t.Fatalf("%s: SeekTime(%d,%d) = %d, the curve at distance %d is %d",
					what, pair[0], pair[1], got, d, want)
			}
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func TestSeekTableMatchesClosedForm(t *testing.T) {
	m := xp()
	checkSeekTable(t, m, "table 1", func(d int) int64 { return closedFormSeek(m, d) })
}

func FuzzSeekTableMatchesClosedForm(f *testing.F) {
	f.Add(uint16(3832), uint32(1500), uint32(7000), uint32(9500))
	f.Add(uint16(2), uint32(1), uint32(1), uint32(1))
	f.Add(uint16(977), uint32(40), uint32(100_000), uint32(3))
	f.Fuzz(func(t *testing.T, cylinders uint16, minSeek, avgOver, maxOver uint32) {
		p := QuantumXP32150Params()
		p.Cylinders = int(cylinders)
		p.ZoneCount = min(p.ZoneCount, p.Cylinders)
		p.MinSeek = int64(minSeek)
		p.AvgSeek = p.MinSeek + int64(avgOver)
		p.MaxSeek = p.AvgSeek + int64(maxOver)
		m, err := NewModel(p)
		if err != nil {
			t.Skip(err)
		}
		checkSeekTable(t, m, "fuzzed", func(d int) int64 { return closedFormSeek(m, d) })
		if !panics(func() { m.SeekTime(0, m.Cylinders) }) || !panics(func() { m.SeekTime(-1, 0) }) {
			t.Error("SeekTime accepted an out-of-range cylinder")
		}
	})
}
