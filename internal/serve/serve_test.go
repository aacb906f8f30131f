package serve

import (
	"context"
	"math"
	"testing"
	"time"

	"sfcsched/internal/disk"
)

func TestNewClockValidation(t *testing.T) {
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewClock(d); err == nil {
			t.Errorf("NewClock(%v) accepted an invalid dilation", d)
		}
	}
	// The finite extremes stay valid, and their model time saturates
	// instead of wrapping negative.
	for _, tc := range []struct {
		dilation float64
		want     int64 // Now() after 1 ms of wall time
	}{
		{1e-12, 0},
		{1e300, math.MaxInt64},
	} {
		c, err := NewClock(tc.dilation)
		if err != nil {
			t.Fatalf("NewClock(%v): %v", tc.dilation, err)
		}
		time.Sleep(time.Millisecond)
		if got := c.Now(); got != tc.want {
			t.Errorf("dilation %v: Now() = %d, want %d", tc.dilation, got, tc.want)
		}
	}
	c, err := NewClock(100)
	if err != nil {
		t.Fatalf("NewClock(100): %v", err)
	}
	if c.Dilation() != 100 {
		t.Fatalf("Dilation() = %v, want 100", c.Dilation())
	}
}

func TestClockWallConversion(t *testing.T) {
	cases := []struct {
		dilation float64
		model    int64
		want     time.Duration
	}{
		{1, 1_000_000, time.Second},             // real time
		{100, 1_000_000, 10 * time.Millisecond}, // compressed
		{0.5, 1_000_000, 2 * time.Second},       // stretched
		{100, 0, 0},
		{1e-12, 1_000_000, math.MaxInt64},  // 10^21 ns saturates
		{1e-12, -1_000_000, math.MinInt64}, // and so does its negative
	}
	for _, tc := range cases {
		c, _ := NewClock(tc.dilation)
		if got := c.Wall(tc.model); got != tc.want {
			t.Errorf("dilation %v: Wall(%d) = %v, want %v", tc.dilation, tc.model, got, tc.want)
		}
	}
}

func TestClockNowAdvances(t *testing.T) {
	c, _ := NewClock(1000)
	t0 := c.Now()
	time.Sleep(2 * time.Millisecond)
	t1 := c.Now()
	// 2 ms wall at dilation 1000 is at least 2 s of model time; leave slack
	// for coarse clocks but require the dilated advance.
	if t1-t0 < 1_000_000 {
		t.Fatalf("model clock advanced %d µs over 2 ms wall at dilation 1000", t1-t0)
	}
}

func TestClockSleepUntilPastReturnsImmediately(t *testing.T) {
	c, _ := NewClock(1)
	done := make(chan error, 1)
	go func() { done <- c.SleepUntil(context.Background(), -1) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SleepUntil(past): %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("SleepUntil(past) blocked")
	}
}

func TestClockSleepCancel(t *testing.T) {
	for _, tc := range []struct {
		dilation float64
		model    int64
	}{
		{0.001, 60_000_000}, // 1 model µs costs 1 wall ms: a long sleep
		{1e-12, 1_000_000},  // a wall time past the Duration range
	} {
		c, _ := NewClock(tc.dilation)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- c.SleepFor(ctx, tc.model) }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("dilation %v: canceled SleepFor returned nil", tc.dilation)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("dilation %v: canceled SleepFor did not return", tc.dilation)
		}
		cancel()
	}
}

func TestEmulatedDiskMatchesServiceModel(t *testing.T) {
	model := disk.MustModel(disk.QuantumXP32150Params())
	sm := disk.ServiceModel{Disk: model}
	clock, _ := NewClock(100_000) // model time nearly free in wall time
	be, err := NewEmulatedDisk(sm, clock)
	if err != nil {
		t.Fatalf("NewEmulatedDisk: %v", err)
	}
	if be.Cylinders() != model.Cylinders {
		t.Fatalf("Cylinders() = %d, want %d", be.Cylinders(), model.Cylinders)
	}
	r := reqAt(7, 2048, 65536)
	comp, err := be.Serve(context.Background(), r, 100)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	seek, svc := sm.Times(100, 2048, 65536, nil)
	if comp.Seek != seek || comp.Service != svc {
		t.Fatalf("Serve = %+v, want seek %d service %d", comp, seek, svc)
	}
	// Out-of-range targets clamp to the geometry like the simulator's
	// stations.
	comp, err = be.Serve(context.Background(), reqAt(8, model.Cylinders+50, 4096), 0)
	if err != nil {
		t.Fatalf("Serve(clamped): %v", err)
	}
	seek, svc = sm.Times(0, model.Cylinders-1, 4096, nil)
	if comp.Seek != seek || comp.Service != svc {
		t.Fatalf("clamped Serve = %+v, want seek %d service %d", comp, seek, svc)
	}
}

func TestEmulatedDiskCancel(t *testing.T) {
	model := disk.MustModel(disk.QuantumXP32150Params())
	clock, _ := NewClock(0.001)
	be, _ := NewEmulatedDisk(disk.ServiceModel{Disk: model}, clock)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := be.Serve(ctx, reqAt(1, 3000, 65536), 0)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled Serve returned nil")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled Serve did not return")
	}
}

func TestEmulatedDiskValidation(t *testing.T) {
	model := disk.MustModel(disk.QuantumXP32150Params())
	clock, _ := NewClock(1)
	if _, err := NewEmulatedDisk(disk.ServiceModel{Disk: model}, nil); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := NewEmulatedDisk(disk.ServiceModel{}, clock); err == nil {
		t.Error("empty service model accepted")
	}
}
