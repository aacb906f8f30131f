package sim

// Committed golden recordings for the paths legacy_test.go predates:
// degraded reads, absorbed writes, re-routing at failure time, the rebuild
// pump, and single-disk faults with shadows attached. Each recording is
// the run's dispatch JSONL plus one trailing summary line (the counters
// and shadow reports the dispatch stream does not carry). Regenerate with
//
//	go test ./internal/sim -run TestGoldenRecordings -update
//
// only when a behaviour change is intended; a refactor must reproduce
// them byte for byte.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sfcsched/internal/fault"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

var update = flag.Bool("update", false, "regenerate the testdata/*.jsonl golden recordings")

// arraySummary is the trailing line of an array recording.
type arraySummary struct {
	Served, Dropped  uint64
	Makespan         int64
	PerDiskOps       []uint64
	Reconstructions  uint64
	AbsorbedWrites   uint64
	RebuildReads     uint64
	Faults           *fault.Stats
	FaultDrops       []uint64
	RebuiltCallbacks int
}

// recordArray runs the 5-disk recording workload under plan and returns
// the dispatch JSONL with the summary line appended.
func recordArray(t *testing.T, mk func(int) (sched.Scheduler, error), plan *fault.Plan) ([]byte, *ArrayResult) {
	t.Helper()
	array := testArray(t)
	logical := workload.Open{
		Seed: 21, Count: 200, MeanInterarrival: 9_000,
		Dims: 2, Levels: 8, DeadlineMin: 300_000, DeadlineMax: 700_000,
		Cylinders: int(array.MaxBlocks()), Size: array.BlockSize, WriteFrac: 0.3,
	}.MustGenerate()
	var buf bytes.Buffer
	res, err := RunArray(ArrayConfig{
		Array: array, NewScheduler: mk,
		Options: Options{DropLate: true, Dims: 2, Levels: 8, Fault: plan, Trace: JSONLTrace(&buf)},
	}, logical)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := 0 // the rebuild completes at most once per run
	if res.Faults != nil && res.Faults.RebuiltAt > 0 {
		rebuilt = 1
	}
	sum := arraySummary{
		Served: res.Logical.Served, Dropped: res.Logical.Dropped, Makespan: res.Makespan,
		PerDiskOps: res.PerDiskOps, Reconstructions: res.Reconstructions,
		AbsorbedWrites: res.AbsorbedWrites, RebuildReads: res.RebuildReads,
		Faults: res.Faults, RebuiltCallbacks: rebuilt,
	}
	for _, c := range res.PerDisk {
		sum.FaultDrops = append(sum.FaultDrops, c.FaultDropped)
	}
	return appendSummary(t, &buf, sum), res
}

func appendSummary(t *testing.T, buf *bytes.Buffer, summary any) []byte {
	t.Helper()
	line, err := json.Marshal(summary)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(line)
	buf.WriteByte('\n')
	return buf.Bytes()
}

func TestGoldenRecordings(t *testing.T) {
	scanEDF := func(int) (sched.Scheduler, error) { return sched.NewSCANEDF(50_000), nil }
	t.Run("array-degraded-rebuild", func(t *testing.T) {
		got, res := recordArray(t, scanEDF, &fault.Plan{
			Seed: 8, TransientRate: 0.04, RetryBase: 2_000,
			FailDisk: 2, FailAt: 500_000,
			Rebuild: true, RebuildBlocks: 12, RebuildInterval: 4_000,
		})
		// The recording is only worth keeping while it crosses every
		// degraded path.
		if res.Reconstructions == 0 || res.AbsorbedWrites == 0 || res.RebuildReads == 0 ||
			res.Faults.Transients == 0 || res.Faults.RebuiltAt == 0 {
			t.Fatalf("recording lost coverage: reconstructions=%d absorbed=%d rebuild=%d faults=%+v",
				res.Reconstructions, res.AbsorbedWrites, res.RebuildReads, *res.Faults)
		}
		checkRecording(t, "array-degraded-rebuild", got)
	})
	t.Run("array-zero-interval-rebuild", func(t *testing.T) {
		got, res := recordArray(t, fcfsPerDisk, &fault.Plan{
			FailDisk: 0, FailAt: 300_000,
			Rebuild: true, RebuildBlocks: 20, RebuildInterval: 0,
		})
		if res.RebuildReads != 20*4 || res.Faults.RebuiltAt == 0 {
			t.Fatalf("recording lost coverage: rebuild reads=%d faults=%+v", res.RebuildReads, *res.Faults)
		}
		checkRecording(t, "array-zero-interval-rebuild", got)
	})
	t.Run("single-faults-shadows", func(t *testing.T) {
		m := xp()
		trace := workload.Open{
			Seed: 13, Count: 200, MeanInterarrival: 12_000,
			Dims: 2, Levels: 8, DeadlineMin: 100_000, DeadlineMax: 400_000,
			Cylinders: m.Cylinders, SizeMin: 4 << 10, SizeMax: 128 << 10,
		}.MustGenerate()
		sh1 := NewShadow("edf", sched.NewEDF())
		sh2 := NewShadow("fcfs", sched.NewFCFS())
		var buf bytes.Buffer
		res, err := Run(Config{Disk: m, Scheduler: sched.NewSCAN(),
			Options: Options{DropLate: true,
				Shadows: []*Shadow{sh1, sh2}, Trace: JSONLTrace(&buf),
				Fault: &fault.Plan{
					Seed: 2, TransientRate: 0.15, MaxRetries: 1,
					RetryBase: 2_000,
				}}}, trace)
		if err != nil {
			t.Fatal(err)
		}
		// Worth keeping while a fault is retried, one exhausts its retry
		// budget and another request expires during its backoff.
		if fs := res.Faults; fs.Retries == 0 || fs.Exhausted == 0 || res.FaultDropped <= fs.Exhausted {
			t.Fatalf("recording lost coverage: faults=%+v fault drops=%d", *fs, res.FaultDropped)
		}
		got := appendSummary(t, &buf, struct {
			Served, Dropped uint64
			Makespan        int64
			HeadTravel      int64
			Inversions      uint64
			Faults          *fault.Stats
			Shadows         []ShadowReport
		}{res.Served, res.Dropped, res.Makespan, res.HeadTravel, res.TotalInversions(), res.Faults, res.Shadows})
		checkRecording(t, "single-faults-shadows", got)
	})
}

// checkRecording compares got with testdata/<name>.jsonl (rewriting the
// file under -update) and reports the first differing line the way
// cmd/tracediff does.
func checkRecording(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if d := firstDiff(want, got); d != "" {
		t.Errorf("%s: %s", path, d)
	}
}

// firstDiff returns "" when the two recordings are byte-identical, or a
// tracediff-style report of the first diverging line.
func firstDiff(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	a, b := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; ; i++ {
		la, lb := "<end of trace>", "<end of trace>"
		if i < len(a) {
			la = string(a[i])
		}
		if i < len(b) {
			lb = string(b[i])
		}
		if la != lb {
			return fmt.Sprintf("recordings diverge at line %d\nwant %6d - %s\ngot  %6d + %s", i+1, i+1, la, i+1, lb)
		}
	}
}
