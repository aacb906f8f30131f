package disk

import (
	"testing"

	"sfcsched/internal/stats"
)

// TestServiceModelMatchesModel pins ServiceModel.Times to the Model
// primitives it composes: the golden differential suites in internal/sim
// depend on the station path through ServiceModel reproducing the legacy
// loops bit for bit.
func TestServiceModelMatchesModel(t *testing.T) {
	m := MustModel(QuantumXP32150Params())
	cases := []struct {
		head, cyl int
		size      int64
	}{
		{0, 0, 64 << 10},
		{0, 3831, 64 << 10},
		{1200, 1200, 4 << 10},
		{3000, 17, 256 << 10},
	}
	for _, tc := range cases {
		sm := ServiceModel{Disk: m}
		seek, total := sm.Times(tc.head, tc.cyl, tc.size, nil)
		wantSeek := m.SeekTime(tc.head, tc.cyl)
		wantTotal := wantSeek + m.AvgRotationalLatency() + m.TransferTime(tc.cyl, tc.size)
		if seek != wantSeek || total != wantTotal {
			t.Errorf("Times(%d,%d,%d) = (%d,%d), want (%d,%d)",
				tc.head, tc.cyl, tc.size, seek, total, wantSeek, wantTotal)
		}
	}
}

func TestServiceModelPolicies(t *testing.T) {
	m := MustModel(QuantumXP32150Params())

	fixed := ServiceModel{Disk: m, FixedService: 777}
	if seek, total := fixed.Times(0, 3000, 64<<10, nil); seek != 0 || total != 777 {
		t.Errorf("FixedService: got (%d,%d), want (0,777)", seek, total)
	}
	// FixedService needs no disk at all.
	fixed.Disk = nil
	if seek, total := fixed.Times(0, 3000, 64<<10, nil); seek != 0 || total != 777 {
		t.Errorf("FixedService without disk: got (%d,%d), want (0,777)", seek, total)
	}
}

// TestServiceModelSampledRotation checks the RNG contract: exactly one
// draw per sampled call, and a nil RNG falls back to the deterministic
// average (the real-clock serving path has no simulation RNG stream).
func TestServiceModelSampledRotation(t *testing.T) {
	m := MustModel(QuantumXP32150Params())
	sm := ServiceModel{Disk: m, SampleRotation: true}

	a := stats.NewRNG(7)
	b := stats.NewRNG(7)
	_, gotTotal := sm.Times(10, 2000, 64<<10, a)
	wantRot := b.Uint64() // RotationalLatency consumes exactly one draw
	_ = wantRot
	if a.Uint64() != b.Uint64() {
		t.Error("sampled call consumed more than one RNG draw")
	}
	seek := m.SeekTime(10, 2000)
	lo := seek + m.TransferTime(2000, 64<<10)
	hi := lo + m.RevolutionTime()
	if gotTotal < lo || gotTotal >= hi {
		t.Errorf("sampled total %d outside [%d,%d)", gotTotal, lo, hi)
	}

	_, avgTotal := sm.Times(10, 2000, 64<<10, nil)
	want := seek + m.AvgRotationalLatency() + m.TransferTime(2000, 64<<10)
	if avgTotal != want {
		t.Errorf("nil RNG: got %d, want deterministic average %d", avgTotal, want)
	}
}

func TestServiceModelValidate(t *testing.T) {
	if err := (ServiceModel{}).Validate(); err == nil {
		t.Error("zero ServiceModel validated")
	}
	if err := (ServiceModel{FixedService: 1}).Validate(); err != nil {
		t.Errorf("fixed-service model rejected: %v", err)
	}
	m := MustModel(QuantumXP32150Params())
	if err := (ServiceModel{Disk: m}).Validate(); err != nil {
		t.Errorf("disk-backed model rejected: %v", err)
	}
	if (ServiceModel{Disk: m}).Cylinders() != m.Cylinders {
		t.Error("Cylinders() did not expose the geometry")
	}
	if (ServiceModel{FixedService: 1}).Cylinders() != 0 {
		t.Error("diskless Cylinders() not 0")
	}
}
