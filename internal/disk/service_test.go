package disk

import "testing"

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
