package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sfcsched/internal/core"
)

// A hand-written dispatch trace: lines arrive in *dispatch* order (not
// arrival order), request 2 appears twice (a fault retry), and optional
// fields come and go per line. The JSON matches what sim.JSONLTrace
// emits; the byte-level equivalence of that writer is pinned in
// internal/sim.
const replayJSONL = `{"now":100,"id":2,"cyl":50,"arrival":40,"wait":60,"deadline":900,"prio":[1,3],"size":65536,"write":true,"value":4,"tenant":1,"class":1,"head":0,"seek":10,"service":60,"queue":2}

{"now":160,"id":1,"cyl":10,"arrival":5,"wait":155,"prio":[0,2],"size":4096,"head":50,"seek":4,"service":40,"queue":1}
{"now":200,"id":2,"cyl":50,"arrival":40,"wait":160,"deadline":900,"prio":[1,3],"size":65536,"write":true,"value":4,"tenant":1,"class":1,"head":10,"faulted":true,"queue":1}
{"now":260,"id":3,"cyl":70,"arrival":45,"wait":215,"prio":[2,2],"size":8192,"head":50,"dropped":true,"queue":0}
`

func TestLoadReplayJSONL(t *testing.T) {
	p, err := LoadReplay(strings.NewReader(replayJSONL))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 || p.Dims() != 2 {
		t.Fatalf("Len=%d Dims=%d, want 3 and 2", p.Len(), p.Dims())
	}
	want := []core.Request{
		{ID: 1, Arrival: 5, Cylinder: 10, Size: 4096, Priorities: []int{0, 2}},
		{ID: 2, Arrival: 40, Cylinder: 50, Size: 65536, Deadline: 900, Write: true,
			Value: 4, Tenant: 1, Class: 1, Priorities: []int{1, 3}},
		{ID: 3, Arrival: 45, Cylinder: 70, Size: 8192, Priorities: []int{2, 2}},
	}
	got := p.Generate()
	for i := range want {
		w := want[i]
		sameRequest(t, i, &w, got[i])
	}
}

func sameRequest(t *testing.T, i int, want, got *core.Request) {
	t.Helper()
	if got.ID != want.ID || got.Arrival != want.Arrival || got.Cylinder != want.Cylinder ||
		got.Deadline != want.Deadline || got.Size != want.Size || got.Write != want.Write ||
		got.Value != want.Value || got.Tenant != want.Tenant || got.Class != want.Class {
		t.Fatalf("request %d = %+v, want %+v", i, *got, *want)
	}
	if len(got.Priorities) != len(want.Priorities) {
		t.Fatalf("request %d has %d priorities, want %d", i, len(got.Priorities), len(want.Priorities))
	}
	for k := range want.Priorities {
		if got.Priorities[k] != want.Priorities[k] {
			t.Fatalf("request %d priority %d = %d, want %d", i, k, got.Priorities[k], want.Priorities[k])
		}
	}
}

// A recorded request CSV replays to the exact generated trace.
func TestLoadReplayCSV(t *testing.T) {
	w := openVariants()[0]
	trace := w.MustGenerate()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, trace, w.Dims); err != nil {
		t.Fatal(err)
	}
	p, err := LoadReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != len(trace) || p.Dims() != w.Dims {
		t.Fatalf("Len=%d Dims=%d, want %d and %d", p.Len(), p.Dims(), len(trace), w.Dims)
	}
	sameTrace(t, "csv replay", trace, p.Generate())
}

func TestLoadReplayFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(replayJSONL), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("Len=%d, want 3", p.Len())
	}
	if _, err := LoadReplayFile(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("missing file did not error")
	}
}

func TestLoadReplayErrors(t *testing.T) {
	cases := []struct {
		name, input, want string
	}{
		{"empty", "", "empty"},
		{"blank", "  \n\t\n", "empty"},
		{"bad-json", `{"now":1,"id":1,"cyl":0,"arrival":0,"wait":1,"head":0,"queue":0}` + "\n{broken\n", "line 2"},
		{"array-trace", `{"now":1,"disk":2,"id":1,"cyl":0,"arrival":0,"wait":1,"head":0,"queue":0}` + "\n", "disk"},
		{"mixed-dims", `{"now":1,"id":1,"cyl":0,"arrival":0,"wait":1,"prio":[1],"head":0,"queue":0}` + "\n" +
			`{"now":2,"id":2,"cyl":0,"arrival":1,"wait":1,"prio":[1,2],"head":0,"queue":0}` + "\n", "dimensionalities"},
		{"bad-csv", "id,arrival_us,deadline_us,cylinder,size,write,value\nnope,0,0,0,0,false,0\n", "id"},
		{"contradicting-retry", `{"id":7,"cyl":10,"arrival":5}` + "\n" + `{"id":7,"cyl":99,"arrival":6}` + "\n", "request 7 differs"},
		{"contradicting-csv-row", csvHeader1 + "1,10,500,7,4096,false,0,3\n1,20,0,8,512,true,0,2\n", "request 1 differs"},
		{"wrong-header", "bogus,header\n1,2\n", "header"},
		{"header-only-csv", csvHeader1, "holds no requests"},
		{"negative-csv-arrival", csvHeader1 + "1,-5,0,7,4096,false,0,3\n2,1,0,9,8192,true,2,1\n", "line 2: negative arrival -5"},
		{"negative-csv-deadline", csvHeader1 + "1,10,0,7,4096,false,0,3\n2,20,-1,9,8192,true,2,1\n", "line 3: negative deadline -1"},
		{"negative-jsonl-arrival", `{"id":1,"arrival":1}` + "\n" + `{"id":2,"arrival":-5}` + "\n", "line 2: negative arrival -5"},
		{"negative-jsonl-deadline", `{"id":1,"arrival":5,"deadline":-1}` + "\n", "line 1: negative deadline -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadReplay(strings.NewReader(tc.input))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// heapReplay is the per-request-allocating copy Generate used to be, kept
// as an independent reference for the arena form.
func heapReplay(p *Replay) []*core.Request {
	reqs := make([]*core.Request, len(p.reqs))
	for i := range p.reqs {
		r := &core.Request{}
		*r = p.reqs[i]
		if p.dims > 0 {
			r.Priorities = make([]int, p.dims)
			copy(r.Priorities, p.reqs[i].Priorities)
		}
		reqs[i] = r
	}
	return reqs
}

func TestReplayGenerateArenaMatchesGenerate(t *testing.T) {
	p, err := LoadReplay(strings.NewReader(replayJSONL))
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	sameTrace(t, "replay arena", heapReplay(p), p.GenerateArena(&a))
	sameTrace(t, "nil arena", heapReplay(p), p.GenerateArena(nil))
	sameTrace(t, "own arena", heapReplay(p), p.Generate())
	// A second generation through the same arena recycles the slabs.
	first := p.GenerateArena(&a)
	p0 := first[0]
	if second := p.GenerateArena(&a); second[0] != p0 {
		t.Error("replay regeneration reallocated the request slab")
	}
}

func TestReplayArenaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	trace := openVariants()[0].MustGenerate()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, trace, 3); err != nil {
		t.Fatal(err)
	}
	p, err := LoadReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	p.GenerateArena(&a) // size the slabs
	allocs := testing.AllocsPerRun(10, func() {
		if got := p.GenerateArena(&a); len(got) != p.Len() {
			t.Fatal("short trace")
		}
	})
	if allocs > 0 {
		t.Errorf("replay arena regeneration allocates %v per trace, want 0", allocs)
	}
}
