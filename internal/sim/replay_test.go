package sim

// Record→replay round trip: a run recorded through JSONLTrace, loaded by
// workload.LoadReplay, and re-executed on a fresh scheduler of the same
// build must reproduce the original byte for byte — same JSONL, same
// trace-event stream, same collectors. This is the regression gate the
// CI tracediff smoke rests on.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

func TestReplayRoundTripGolden(t *testing.T) {
	m := xp()
	for name, mk := range goldenSchedulers(m) {
		for _, seed := range []uint64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				trace := goldenTrace(seed, m)

				var bufA, bufB bytes.Buffer
				var evA, evB []flatEvent
				record := JSONLTrace(&bufA)
				resA, err := Run(Config{
					Disk: m, Scheduler: mk(),
					Options: Options{DropLate: true, Trace: func(ev TraceEvent) {
						record(ev)
						evA = append(evA, flatten(ev))
					}},
				}, smallTraceCopy(trace))
				if err != nil {
					t.Fatal(err)
				}

				rec, err := workload.LoadReplay(bytes.NewReader(bufA.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if rec.Len() != len(trace) {
					t.Fatalf("replay reconstructed %d requests, recorded run had %d", rec.Len(), len(trace))
				}
				replayed := rec.Generate()
				for i := range trace {
					if !reflect.DeepEqual(*trace[i], *replayed[i]) {
						t.Fatalf("request %d did not survive the round trip:\noriginal: %+v\nreplayed: %+v",
							i, *trace[i], *replayed[i])
					}
				}

				replay := JSONLTrace(&bufB)
				resB, err := Run(Config{
					Disk: m, Scheduler: mk(),
					Options: Options{DropLate: true, Trace: func(ev TraceEvent) {
						replay(ev)
						evB = append(evB, flatten(ev))
					}},
				}, replayed)
				if err != nil {
					t.Fatal(err)
				}

				if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
					t.Error("replayed JSONL diverges from the recorded run")
				}
				if !reflect.DeepEqual(evA, evB) {
					t.Error("replayed trace-event stream diverges from the recorded run")
				}
				if !reflect.DeepEqual(resA.Collector, resB.Collector) {
					t.Errorf("collectors diverged:\nrecorded: %+v\nreplayed: %+v", resA.Collector, resB.Collector)
				}
				if resA.HeadTravel != resB.HeadTravel {
					t.Errorf("head travel %d, recorded %d", resB.HeadTravel, resA.HeadTravel)
				}
			})
		}
	}
}

// A CSV-recorded workload replays to the same run as the generator that
// produced it (the schedsim -trace path and the -replay path agree).
func TestReplayFromCSVMatchesGenerator(t *testing.T) {
	m := xp()
	trace := goldenTrace(3, m)
	var csv bytes.Buffer
	if err := workload.WriteCSV(&csv, trace, 2); err != nil {
		t.Fatal(err)
	}
	rec, err := workload.LoadReplay(&csv)
	if err != nil {
		t.Fatal(err)
	}

	var bufA, bufB bytes.Buffer
	mk := goldenSchedulers(m)["cascaded"]
	if _, err := Run(Config{Disk: m, Scheduler: mk(),
		Options: Options{DropLate: true, Trace: JSONLTrace(&bufA)}}, smallTraceCopy(trace)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Disk: m, Scheduler: mk(),
		Options: Options{DropLate: true, Trace: JSONLTrace(&bufB)}}, rec.Generate()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("CSV replay diverges from the generated run")
	}
}

// recordRun runs trace on m under s with DropLate and returns its JSONL
// recording and the number of requests it dropped.
func recordRun(t *testing.T, m *disk.Model, s sched.Scheduler, dims int, trace []*core.Request) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	res, err := Run(Config{Disk: m, Scheduler: s,
		Options: Options{DropLate: true, Dims: dims, Levels: 8, Trace: JSONLTrace(&buf)}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Dropped
}

// Every multi-client scenario, under the cascade, the paper's strongest
// baseline and the naive one, at a load that both serves and drops:
// record, load the recording back, re-run it, and the two recordings must
// be byte-equal. The drop counts pin the workloads themselves: the
// scenarios must stress the schedulers differently. Steady state drops
// under 5 %, the flash crowd and the diurnal peak overload every policy
// into 40–50 %, and the mixed scenario separates scan-edf, which drops
// under 0.6× as much as the others.
func TestScenarioReplayRoundTrip(t *testing.T) {
	const requests = 3000
	m := xp()
	scheds := goldenSchedulers(m)
	// Dropped requests per scenario, in workload.Scenarios() order.
	wantDropped := map[string][]uint64{
		"cascaded": {142, 1451, 1334, 1108},
		"scan-edf": {2, 1355, 1252, 629},
		"fcfs":     {53, 1432, 1320, 1176},
	}
	dropped := map[string][]uint64{}
	pct := func(name string, x int) float64 { return 100 * float64(dropped[name][x]) / requests }
	for x, scenario := range workload.Scenarios() {
		spec := workload.MustScenarioSpec(scenario, 1, requests, m.Cylinders)
		trace := spec.MustGenerate()
		for _, name := range []string{"cascaded", "scan-edf", "fcfs"} {
			recA, n := recordRun(t, m, scheds[name](), spec.Dims(), trace)
			if n != wantDropped[name][x] {
				t.Errorf("%s/%s: dropped %d, want %d", scenario, name, n, wantDropped[name][x])
			}
			dropped[name] = append(dropped[name], n)
			rec, err := workload.LoadReplay(bytes.NewReader(recA))
			if err != nil {
				t.Fatal(err)
			}
			replayed := rec.Generate()
			if len(replayed) != len(trace) {
				t.Fatalf("%s/%s: replay reconstructed %d of %d requests", scenario, name, len(replayed), len(trace))
			}
			for i := range trace {
				if !reflect.DeepEqual(*trace[i], *replayed[i]) {
					t.Fatalf("%s/%s: request %d did not survive the round trip:\noriginal: %+v\nreplayed: %+v",
						scenario, name, i, *trace[i], *replayed[i])
				}
			}
			if recB, _ := recordRun(t, m, scheds[name](), spec.Dims(), replayed); !bytes.Equal(recA, recB) {
				t.Errorf("%s/%s: replayed JSONL diverges from the recorded run", scenario, name)
			}
		}
	}
	for name := range wantDropped {
		if p := pct(name, 0); p >= 5 {
			t.Errorf("%s: steady scenario dropped %.2f%%, want under 5", name, p)
		}
		if lo, hi := min(pct(name, 1), pct(name, 2)), max(pct(name, 1), pct(name, 2)); lo < 40 || hi > 50 {
			t.Errorf("%s: flash/diurnal dropped %.2f%%–%.2f%%, want 40–50%%", name, lo, hi)
		}
	}
	if mixed := pct("scan-edf", 3); mixed >= 0.6*min(pct("cascaded", 3), pct("fcfs", 3)) {
		t.Errorf("mixed scenario: scan-edf dropped %.2f%%, want under 0.6x the others", mixed)
	}
}
