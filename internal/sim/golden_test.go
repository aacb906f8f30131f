package sim

// Golden differential tests: the unified event-heap Engine must reproduce
// the metrics of the two deleted pre-engine loops (preserved verbatim in
// legacy_test.go) exactly — same collectors, same head travel, same trace
// stream — on fuzzed traces across every scheduler and option combination.

import (
	"fmt"
	"reflect"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// goldenSchedulers builds every queue discipline the simulator can drive:
// the policy table's baselines plus the Cascaded-SFC scheduler with its
// SFC3 stage off and on.
func goldenSchedulers(m *disk.Model) map[string]func() sched.Scheduler {
	return withPolicies(m, map[string]func() sched.Scheduler{
		"cascaded": func() sched.Scheduler {
			return core.MustScheduler("cascaded",
				core.EncapsulatorConfig{Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 800_000},
				core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true},
				0.05)
		},
		// The SFC3 stage tracks cumulative head progress across Add/Next
		// calls, so it is sensitive to the exact scheduler call sequence
		// (including the idle probe after a queue drain).
		"cascaded-sfc3": func() sched.Scheduler {
			return core.MustScheduler("cascaded-sfc3",
				core.EncapsulatorConfig{
					Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 800_000,
					UseCylinder: true, R: 3, Cylinders: 3832,
				},
				core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true},
				0.05)
		},
	})
}

// withPolicies adds a constructor for every row of sched.Policies to
// cascades, estimating service times with m.
func withPolicies(m *disk.Model, cascades map[string]func() sched.Scheduler) map[string]func() sched.Scheduler {
	for _, p := range sched.Policies {
		cascades[p.Name] = func() sched.Scheduler { return p.New(m.ServiceTime, 8) }
	}
	return cascades
}

// policyEvents gives a Cascaded-SFC scheduler counters of its own and
// returns a reader of its policy events (preemptions, promotions, swaps);
// the engine must reproduce even these, which depend on the exact Add/Next
// call sequence, nil probes included. Other schedulers read zero.
func policyEvents(s sched.Scheduler) func() [3]uint64 {
	m := new(core.Metrics)
	if cs, ok := s.(*core.Scheduler); ok {
		cs.SetMetrics(m)
	}
	return func() [3]uint64 { return [3]uint64{m.Preemptions.Load(), m.Promotions.Load(), m.Swaps.Load()} }
}

// goldenTrace fuzzes an arrival-sorted trace with in-range cylinders (the
// legacy loop briefly exposed unclamped cylinders to schedulers — a bug the
// engine fixed — so out-of-range cylinders would be a semantic difference,
// not a regression).
func goldenTrace(seed uint64, m *disk.Model) []*core.Request {
	return workload.Open{
		Seed: seed, Count: 600, MeanInterarrival: 20_000,
		Dims: 2, Levels: 8, DeadlineMin: 100_000, DeadlineMax: 500_000,
		Cylinders: m.Cylinders, SizeMin: 4 << 10, SizeMax: 128 << 10,
	}.MustGenerate()
}

// flatEvent is a TraceEvent with the Request pointer flattened to its ID so
// streams from independent runs (cloned traces) compare by value.
type flatEvent struct {
	Now      int64
	DiskID   int
	ReqID    uint64
	Head     int
	Seek     int64
	Service  int64
	Dropped  bool
	Faulted  bool
	QueueLen int
}

func flatten(ev TraceEvent) flatEvent {
	return flatEvent{
		Now: ev.Now, DiskID: ev.DiskID, ReqID: ev.Request.ID,
		Head: ev.Head, Seek: ev.Seek, Service: ev.Service,
		Dropped: ev.Dropped, Faulted: ev.Faulted, QueueLen: ev.QueueLen,
	}
}

func TestEngineMatchesLegacySingle(t *testing.T) {
	m := xp()
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"disk", Config{Disk: m}},
		{"disk-drop", Config{Disk: m, Options: Options{DropLate: true}}},
		// §5.1-5.2's "the transfer time dominates the seek time": a disk
		// station (clamped head, head travel) charged a seek-free,
		// transfer-sized constant. The diskless fixed-service scenario
		// below does not cross the clamp.
		{"transfer-only", Config{Disk: m, FixedService: m.TransferTime(0, 64<<10), Options: Options{DropLate: true}}},
		{"fixed-service", Config{FixedService: 12_000, Options: Options{DropLate: true}}},
	}
	for name, mk := range goldenSchedulers(m) {
		for _, sc := range scenarios {
			for _, seed := range []uint64{1, 7} {
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, sc.name, seed), func(t *testing.T) {
					trace := goldenTrace(seed, m)

					var wantEvents, gotEvents []flatEvent
					wantCfg := sc.cfg
					wantCfg.Scheduler = mk()
					wantPolicy := policyEvents(wantCfg.Scheduler)
					wantCfg.Trace = func(ev TraceEvent) { wantEvents = append(wantEvents, flatten(ev)) }
					want, err := legacyRun(wantCfg, smallTraceCopy(trace))
					if err != nil {
						t.Fatal(err)
					}

					gotCfg := sc.cfg
					gotCfg.Scheduler = mk()
					gotPolicy := policyEvents(gotCfg.Scheduler)
					gotCfg.Trace = func(ev TraceEvent) { gotEvents = append(gotEvents, flatten(ev)) }
					got, err := Run(gotCfg, smallTraceCopy(trace))
					if err != nil {
						t.Fatal(err)
					}

					if !reflect.DeepEqual(got.Collector, want.Collector) {
						t.Errorf("collector diverged from legacy loop:\n got %+v\nwant %+v", got.Collector, want.Collector)
					}
					if got.HeadTravel != want.HeadTravel {
						t.Errorf("head travel = %d, legacy %d", got.HeadTravel, want.HeadTravel)
					}
					if got.Scheduler != want.Scheduler {
						t.Errorf("scheduler name = %q, legacy %q", got.Scheduler, want.Scheduler)
					}
					if got, want := gotPolicy(), wantPolicy(); got != want {
						t.Errorf("preemptions, promotions, swaps = %v, legacy %v", got, want)
					}
					if !reflect.DeepEqual(gotEvents, wantEvents) {
						t.Errorf("trace stream diverged: %d events vs legacy %d", len(gotEvents), len(wantEvents))
						for i := range gotEvents {
							if i < len(wantEvents) && gotEvents[i] != wantEvents[i] {
								t.Errorf("first divergence at event %d:\n got %+v\nwant %+v", i, gotEvents[i], wantEvents[i])
								break
							}
						}
					}
				})
			}
		}
	}
}

// goldenArrayTrace fuzzes a logical block trace with writes, so the RAID-5
// read-modify-write path (deferred write phase, abandonment on miss) is
// exercised by the differential run.
func goldenArrayTrace(seed uint64, array *disk.RAID5) []*core.Request {
	return workload.Streams{
		Seed: seed, Users: 24, Duration: 4_000_000,
		BitRate: 1_200_000, BlockSize: array.BlockSize, Levels: 8,
		DeadlineMin: 300_000, DeadlineMax: 700_000,
		Cylinders: int(array.MaxBlocks()), WriteFrac: 0.3, Burst: 3,
	}.MustGenerate()
}

func TestEngineMatchesLegacyArray(t *testing.T) {
	m := xp()
	array, err := disk.NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]func(int) (sched.Scheduler, error){
		"fcfs": func(int) (sched.Scheduler, error) { return sched.NewFCFS(), nil },
		"edf":  func(int) (sched.Scheduler, error) { return sched.NewEDF(), nil },
		"scan": func(int) (sched.Scheduler, error) { return sched.NewSCAN(), nil },
		"cascaded": func(int) (sched.Scheduler, error) {
			return core.NewScheduler("cascaded",
				core.EncapsulatorConfig{Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 800_000},
				core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true},
				0.05)
		},
	}
	scenarios := []struct {
		name string
		opts Options
	}{
		{"plain", Options{Dims: 1, Levels: 8}},
		{"drop", Options{DropLate: true, Dims: 1, Levels: 8}},
	}
	for name, mk := range factories {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/%s", name, sc.name), func(t *testing.T) {
				trace := goldenArrayTrace(3, array)
				cfg := ArrayConfig{Array: array, NewScheduler: mk, Options: sc.opts}

				want, err := legacyRunArray(cfg, smallTraceCopy(trace))
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunArray(cfg, smallTraceCopy(trace))
				if err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(got.Logical, want.Logical) {
					t.Errorf("logical collector diverged:\n got %+v\nwant %+v", got.Logical, want.Logical)
				}
				if got.SeekTime != want.SeekTime || got.BusyTime != want.BusyTime {
					t.Errorf("seek/busy = %d/%d, legacy %d/%d",
						got.SeekTime, got.BusyTime, want.SeekTime, want.BusyTime)
				}
				if !reflect.DeepEqual(got.PerDiskOps, want.PerDiskOps) {
					t.Errorf("per-disk ops = %v, legacy %v", got.PerDiskOps, want.PerDiskOps)
				}
				if got.Makespan != want.Makespan {
					t.Errorf("makespan = %d, legacy %d", got.Makespan, want.Makespan)
				}
			})
		}
	}
}

// TestArrayTraceEventsCarryDiskID asserts array runs feed the TraceEvent
// stream (a single-disk-only feature before the engine) and stamp every
// physical dispatch with the disk it happened on.
func TestArrayTraceEventsCarryDiskID(t *testing.T) {
	m := xp()
	array, err := disk.NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	events := 0
	_, err = RunArray(ArrayConfig{
		Array:        array,
		NewScheduler: fcfsPerDisk,
		Options: Options{
			DropLate: true, Dims: 1, Levels: 8,
			Trace: func(ev TraceEvent) {
				events++
				if ev.DiskID < 0 || ev.DiskID >= array.Disks {
					t.Fatalf("event with out-of-range DiskID %d", ev.DiskID)
				}
				seen[ev.DiskID]++
			},
		},
	}, goldenArrayTrace(9, array))
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("array run emitted no trace events")
	}
	if len(seen) < 2 {
		t.Errorf("dispatches observed on %d disks, want several: %v", len(seen), seen)
	}
}

// TestArrayPerDiskCollectors asserts array runs populate the per-disk
// physical collectors through the shared engine path.
func TestArrayPerDiskCollectors(t *testing.T) {
	m := xp()
	array, err := disk.NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunArray(ArrayConfig{
		Array:        array,
		NewScheduler: fcfsPerDisk,
		Options:      Options{DropLate: true, Dims: 1, Levels: 8},
	}, goldenArrayTrace(11, array))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDisk) != array.Disks {
		t.Fatalf("PerDisk has %d collectors, want %d", len(res.PerDisk), array.Disks)
	}
	var served, seek int64
	for d, c := range res.PerDisk {
		if c.Served+c.Dropped != res.PerDiskOps[d] {
			t.Errorf("disk %d: served %d + dropped %d != enqueued ops %d",
				d, c.Served, c.Dropped, res.PerDiskOps[d])
		}
		served += int64(c.Served)
		seek += c.SeekTime
	}
	if served == 0 {
		t.Fatal("no physical services recorded")
	}
	if seek != res.SeekTime {
		t.Errorf("per-disk seek sum %d != aggregate %d", seek, res.SeekTime)
	}
}

// headProbe records every head position the simulator exposes to the
// scheduler, both on Add and on Next.
type headProbe struct {
	sched.Scheduler
	heads []int
}

func (p *headProbe) Add(r *core.Request, now int64, head int) {
	p.heads = append(p.heads, head)
	p.Scheduler.Add(r, now, head)
}

func (p *headProbe) Next(now int64, head int) *core.Request {
	p.heads = append(p.heads, head)
	return p.Scheduler.Next(now, head)
}

// TestSchedulersNeverSeeUnclampedHead is the regression test for the
// pre-engine inconsistency where arrivals landing during a service window
// observed the raw (unclamped) target cylinder while the resting head was
// clamped. Every head position handed to a scheduler must be a valid
// cylinder even when the in-flight request's cylinder is out of range.
func TestSchedulersNeverSeeUnclampedHead(t *testing.T) {
	m := xp()
	probe := &headProbe{Scheduler: sched.NewFCFS()}
	trace := []*core.Request{
		{ID: 1, Arrival: 0, Cylinder: 1 << 20, Size: 64 << 10}, // out of range, clamped at dispatch
		{ID: 2, Arrival: 1, Cylinder: 100, Size: 64 << 10},     // arrives mid-service of #1
	}
	if _, err := Run(Config{Disk: m, Scheduler: probe}, trace); err != nil {
		t.Fatal(err)
	}
	if len(probe.heads) == 0 {
		t.Fatal("probe saw no head positions")
	}
	for i, h := range probe.heads {
		if h < 0 || h >= m.Cylinders {
			t.Errorf("scheduler call %d observed out-of-range head %d (disk has %d cylinders)",
				i, h, m.Cylinders)
		}
	}
}
