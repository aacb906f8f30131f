package cluster

// Committed golden recording of a routed, admitted cluster run: the
// dispatch JSONL of every member disk plus one trailing summary line (the
// per-class, per-node and per-tenant ledgers). Regenerate with
//
//	go test ./internal/cluster -run TestGoldenRecordings -update
//
// only when a behaviour change is intended; a refactor must reproduce it
// byte for byte.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sfcsched/internal/sim"
)

var update = flag.Bool("update", false, "regenerate the testdata/*.jsonl golden recordings")

func TestGoldenRecordings(t *testing.T) {
	cfg := testConfig(t, 2, 2)
	cfg.Router = LeastLoaded{}
	tb, err := NewTokenBucket(3, 300, 25)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Admission = tb
	var buf bytes.Buffer
	cfg.Trace = sim.JSONLTrace(&buf)
	// Dims, Levels and Classes stay zero: the recording also pins shape
	// inference from the trace.
	res := MustRun(cfg, testTrace(t, cfg, 17, 200, 1_000, 1.2))

	type classRow struct{ Arrived, Admitted, AdmitDropped, DispatchDropped, Served, Late uint64 }
	var sum struct {
		Makespan   int64
		PerClass   []classRow
		PerNode    []NodeStats
		Tenants    []TenantStats
		Inversions []uint64
	}
	sum.Makespan, sum.PerNode, sum.Tenants = res.Makespan, res.PerNode, res.Tenants
	var rejected, dropped uint64
	for _, cs := range res.PerClass {
		sum.PerClass = append(sum.PerClass, classRow{cs.Arrived, cs.Admitted, cs.AdmitDropped, cs.DispatchDropped, cs.Served, cs.Late})
		rejected += cs.AdmitDropped
		dropped += cs.DispatchDropped
	}
	for _, c := range res.PerDisk {
		sum.Inversions = append(sum.Inversions, c.TotalInversions())
	}
	// The recording is only worth keeping while admission rejects, dispatch
	// drops and every node is routed to.
	if rejected == 0 || dropped == 0 {
		t.Fatalf("recording lost coverage: rejected=%d dropped=%d", rejected, dropped)
	}
	for _, ns := range res.PerNode {
		if ns.Routed == 0 {
			t.Fatalf("recording lost coverage: node %d never routed to", ns.Node)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(line)
	buf.WriteByte('\n')

	path := filepath.Join("testdata", "cluster-least-token.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if bytes.Equal(want, buf.Bytes()) {
		return
	}
	// Report the first differing line the way cmd/tracediff does.
	a, b := bytes.Split(want, []byte("\n")), bytes.Split(buf.Bytes(), []byte("\n"))
	for i := 0; ; i++ {
		la, lb := "<end of trace>", "<end of trace>"
		if i < len(a) {
			la = string(a[i])
		}
		if i < len(b) {
			lb = string(b[i])
		}
		if la != lb {
			t.Fatalf("%s: recordings diverge at line %d\nwant %6d - %s\ngot  %6d + %s", path, i+1, i+1, la, i+1, lb)
		}
	}
}
