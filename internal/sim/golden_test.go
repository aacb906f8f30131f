package sim

// The engine golden: the unified event-heap Engine's outputs on fuzzed
// traces across every scheduler and option combination, pinned one line
// per case in testdata/engine-outputs.txt. The file was recorded while the
// engine still reproduced the two pre-engine loops (the sequential
// single-disk loop and the array loop) exactly, so it holds their outputs:
// same collectors, head travel, policy events and dispatch stream. The
// array rows the old loop could not run (it kept the head at rest), and the
// loaded array rows added later, were recorded from the engine alone. Regenerate with
//
//	go test ./internal/sim -run TestEngineMatchesLegacy -update
//
// only when a behaviour change is intended; a refactor must reproduce it.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"slices"
	"strings"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/metrics"
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
// the golden pins even these, which depend on the exact Add/Next call
// sequence, nil probes included. Other schedulers read zero.
func policyEvents(s sched.Scheduler) func() [3]uint64 {
	m := new(core.Metrics)
	if cs, ok := s.(*core.Scheduler); ok {
		cs.SetMetrics(m)
	}
	return func() [3]uint64 { return [3]uint64{m.Preemptions.Load(), m.Promotions.Load(), m.Swaps.Load()} }
}

// goldenTrace fuzzes an arrival-sorted trace with in-range cylinders: the
// single-disk inputs the engine golden is recorded on.
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

// streamDigest is a Trace sink that keeps a dispatch stream as its length
// and the SHA-256 of one "%v\n" line per flattened event.
type streamDigest struct {
	n int
	h hash.Hash
}

func (d *streamDigest) trace(ev TraceEvent) {
	d.n++
	fmt.Fprintf(d.h, "%v\n", flatten(ev))
}

func (d *streamDigest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// singleOutputs is one single-disk case's line of the engine golden: every
// output the differential against the pre-engine loop compared.
type singleOutputs struct {
	Collector    *metrics.Collector
	Dims, Levels int
	HeadTravel   int64
	Scheduler    string
	PolicyEvents [3]uint64 // preemptions, promotions, swaps
	Dispatches   int
	StreamSHA256 string
}

// arrayOutputs is one array case's line of the engine golden.
type arrayOutputs struct {
	Logical            *metrics.Collector
	Dims, Levels       int
	SeekTime, BusyTime int64
	PerDiskOps         []uint64
	Makespan           int64
	Dispatches         int
	StreamSHA256       string
}

const engineOutputsPath = "testdata/engine-outputs.txt"

// engineOutputs holds the lines of testdata/engine-outputs.txt, each a
// case name and the case's outputs as JSON, keyed by the name. Under
// -update a test drops the lines under its prefix, records its cases and
// saves the file in line order.
type engineOutputs map[string]string

func loadEngineOutputs(t *testing.T, prefix string) engineOutputs {
	data, err := os.ReadFile(engineOutputsPath)
	if err != nil && !*update {
		t.Fatalf("%v (run with -update to record)", err)
	}
	g := engineOutputs{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, _, _ := strings.Cut(line, " "); name != "" && !(*update && strings.HasPrefix(name, prefix)) {
			g[name] = line
		}
	}
	return g
}

// check compares a case's outputs with its line, or records them under
// -update.
func (g engineOutputs) check(t *testing.T, name string, out any) {
	js, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	line := name + " " + string(js)
	if *update {
		g[name] = line
	} else if g[name] != line {
		t.Errorf("%s diverged (run with -update to record)\nwant %s\ngot  %s", engineOutputsPath, g[name], line)
	}
}

func (g engineOutputs) save(t *testing.T) {
	if !*update {
		return
	}
	lines := make([]string, 0, len(g))
	for _, line := range g {
		lines = append(lines, line+"\n")
	}
	slices.Sort(lines)
	if err := os.WriteFile(engineOutputsPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEngineMatchesLegacySingle pins every single-disk case: 14 schedulers
// × 4 scenarios × 2 seeds.
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
	g := loadEngineOutputs(t, "single/")
	for name, mk := range goldenSchedulers(m) {
		for _, sc := range scenarios {
			for _, seed := range []uint64{1, 7} {
				c := fmt.Sprintf("%s/%s/seed%d", name, sc.name, seed)
				t.Run(c, func(t *testing.T) {
					cfg := sc.cfg
					cfg.Scheduler = mk()
					policy := policyEvents(cfg.Scheduler)
					d := &streamDigest{h: sha256.New()}
					cfg.Trace = d.trace
					res, err := Run(cfg, goldenTrace(seed, m))
					if err != nil {
						t.Fatal(err)
					}
					g.check(t, "single/"+c, singleOutputs{res.Collector, res.Dims(), res.Levels(), res.HeadTravel,
						res.Scheduler, policy(), d.n, d.sum()})
				})
			}
		}
	}
	g.save(t)
}

// goldenArrayTrace fuzzes a logical block trace with writes, so the RAID-5
// read-modify-write path runs. At 24 users every deadline is met.
func goldenArrayTrace(seed uint64, array *disk.RAID5) []*core.Request {
	return goldenStreams(seed, 24, array).MustGenerate()
}

// goldenStreams is the array golden's workload from that many users.
func goldenStreams(seed uint64, users int, array *disk.RAID5) workload.Streams {
	return workload.Streams{
		Seed: seed, Users: users, Duration: 4_000_000,
		BitRate: 1_200_000, BlockSize: array.BlockSize, Levels: 8,
		DeadlineMin: 300_000, DeadlineMax: 700_000,
		Cylinders: int(array.MaxBlocks()), WriteFrac: 0.3, Burst: 3,
	}
}

// TestEngineMatchesLegacyArray pins every scheduler on a five-disk RAID-5
// array, with and without DropLate, at a load that meets every deadline and
// at one that misses many.
func TestEngineMatchesLegacyArray(t *testing.T) {
	m := xp()
	array, err := disk.NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded scenarios run the same mix from 72 users, more than the
	// array serves in time, so physical ops start late and the miss paths
	// run: a logical request missed by any of its ops, and a write phase
	// abandoned after a missed read.
	scenarios := []struct {
		name  string
		opts  Options
		users int
	}{
		{"plain", Options{Dims: 1, Levels: 8}, 24},
		{"drop", Options{DropLate: true, Dims: 1, Levels: 8}, 24},
		{"loaded", Options{Dims: 1, Levels: 8}, 72},
		{"loaded-drop", Options{DropLate: true, Dims: 1, Levels: 8}, 72},
	}
	g := loadEngineOutputs(t, "array/")
	for name, mk := range goldenSchedulers(m) {
		for _, sc := range scenarios {
			c := fmt.Sprintf("%s/%s", name, sc.name)
			t.Run(c, func(t *testing.T) {
				d := &streamDigest{h: sha256.New()}
				cfg := ArrayConfig{Array: array, Options: sc.opts,
					NewScheduler: func(int) (sched.Scheduler, error) { return mk(), nil }}
				cfg.Trace = d.trace
				res, err := RunArray(cfg, goldenStreams(3, sc.users, array).MustGenerate())
				if err != nil {
					t.Fatal(err)
				}
				g.check(t, "array/"+c, arrayOutputs{res.Logical, res.Logical.Dims(), res.Logical.Levels(),
					res.SeekTime, res.BusyTime, res.PerDiskOps, res.Makespan, d.n, d.sum()})
			})
		}
	}
	g.save(t)
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
