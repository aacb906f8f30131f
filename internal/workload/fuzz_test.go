package workload

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"testing"

	"sfcsched/internal/core"
)

// The input decoders take files from outside the program. On any bytes
// they must return an error or a well-formed trace: never panic, never
// lose a row without saying so. The seed corpora run as ordinary tests;
// `go test -fuzz FuzzReadCSV ./internal/workload` explores further.

const csvHeader1 = "id,arrival_us,deadline_us,cylinder,size,write,value,priority_0\n"

// csvTagged1 is the header WriteCSV writes: csvHeader1 with the tenant
// and class columns.
const csvTagged1 = "id,arrival_us,deadline_us,cylinder,size,write,value,tenant,class,priority_0\n"

// decoderSeeds are malformed, truncated and mixed-dimensionality inputs in
// both formats, next to one good file of each.
var decoderSeeds = []string{
	"",
	"\n \t\n",
	replayJSONL,
	replayJSONL[:len(replayJSONL)/2], // truncated mid-line
	`{"id":1,"arrival":3,"prio":[1]}` + "\n" + `{"id":2,"arrival":1,"prio":[1,2]}` + "\n",
	`{"id":1,"arrival":3,"prio":[1,2]}` + "\n" + `{"id":2,"arrival":1}` + "\n",
	`{"id":1,"disk":2}` + "\n",
	"{\"id\":1}\nnull\n[]\n",
	// One ID, two different requests: not a fault retry.
	`{"id":7,"cyl":10,"arrival":5}` + "\n" + `{"id":7,"cyl":99,"arrival":6}` + "\n",
	csvHeader1 + "1,10,500,7,4096,false,0,3\n2,5,0,9,8192,true,2,1\n",
	csvHeader1 + "1,10,500,7,4096,false,0,3\n2,5,0,9,81",              // truncated mid-row
	csvHeader1 + "1,10,500,7,4096,false,0\n",                          // row narrower than the header
	csvHeader1 + "1,10,500,7,4096,false,0,3,4\n",                      // row wider than the header
	csvHeader1 + "1,10,500,7,4096,false,0,3\n1,20,0,8,512,true,0,2\n", // duplicate ID
	"id,arrival_us\n1,2\n",
	"id,arrival_us,deadline_us,cylinder,size,write,value\n\"1\",+2,-3,0,0,T,0\n",
	"\ufeff" + csvHeader1,
	// Times before zero, and a deadline below the "none" spelling 0.
	csvHeader1 + "1,-5,0,7,4096,false,0,3\n2,1,0,9,8192,true,2,1\n",
	csvHeader1 + "1,10,-1,7,4096,false,0,3\n",
	`{"id":1,"arrival":-5}` + "\n" + `{"id":2,"arrival":1}` + "\n",
	`{"id":1,"arrival":5,"deadline":-1}` + "\n",
	// The tagged header, well formed and not, next to the untagged one.
	csvTagged1 + "1,10,500,7,4096,false,0,3,2,5\n2,5,0,9,8192,true,2,0,1,1\n",
	csvTagged1 + "1,10,500,7,4096,false,0,x,2,5\n",
	csvTagged1 + "1,10,500,7,4096,false,0,3,2\n",
	"id,arrival_us,deadline_us,cylinder,size,write,value,tenant,class\n1,10,500,7,4096,false,0,3,2\n",
	"id,arrival_us,deadline_us,cylinder,size,write,value,tenant\n1,10,500,7,4096,false,0,3\n",
}

func FuzzReadCSV(f *testing.F) {
	for _, s := range decoderSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		trace, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Row count from an independent pass over the same bytes.
		cr := csv.NewReader(bytes.NewReader(data))
		cr.FieldsPerRecord = -1
		recs, err := cr.ReadAll()
		if err != nil || len(recs) == 0 {
			t.Fatalf("ReadCSV accepted what encoding/csv does not: %v", err)
		}
		if len(trace) != len(recs)-1 {
			t.Fatalf("%d data rows decoded to %d requests", len(recs)-1, len(trace))
		}
		fixed := 7
		if h := recs[0]; len(h) >= 9 && h[7] == "tenant" && h[8] == "class" {
			fixed = 9
		}
		dims := len(recs[0]) - fixed
		for i, r := range trace {
			if len(r.Priorities) != dims {
				t.Fatalf("request %d has %d priorities under a %d-dimension header", i, len(r.Priorities), dims)
			}
			if r.Arrival < 0 || r.Deadline < 0 {
				t.Fatalf("request %d accepted with arrival %d, deadline %d", i, r.Arrival, r.Deadline)
			}
		}
		// Well-formed means the writer's own output decodes to the same trace.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, trace, dims); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading WriteCSV output: %v", err)
		}
		sameTrace(t, "csv round trip", trace, again)
	})
}

func FuzzLoadReplay(f *testing.F) {
	for _, s := range decoderSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := LoadReplay(bytes.NewReader(data))
		if err != nil {
			return
		}
		trace := rep.Generate()
		if len(trace) != rep.Len() {
			t.Fatalf("Generate returned %d requests, Len is %d", len(trace), rep.Len())
		}
		byID := make(map[uint64]*core.Request, len(trace))
		for i, r := range trace {
			if byID[r.ID] != nil {
				t.Fatalf("ID %d appears twice in the replayed trace", r.ID)
			}
			byID[r.ID] = r
			if len(r.Priorities) != rep.Dims() {
				t.Fatalf("request %d has %d priorities, Dims is %d", i, len(r.Priorities), rep.Dims())
			}
			if r.Arrival < 0 || r.Deadline < 0 {
				t.Fatalf("request %d accepted with arrival %d, deadline %d", i, r.Arrival, r.Deadline)
			}
			if i > 0 {
				p := trace[i-1]
				if p.Arrival > r.Arrival || (p.Arrival == r.Arrival && p.ID > r.ID) {
					t.Fatalf("requests %d and %d are out of (arrival, ID) order", i-1, i)
				}
			}
		}
		// Every input row must be in the trace as written; a row may repeat
		// an earlier one (a fault retry) but may not contradict it.
		for n, want := range replayRows(t, data) {
			got := byID[want.ID]
			if got == nil {
				t.Fatalf("input row %d (ID %d) is not in the replayed trace", n, want.ID)
			}
			if len(want.Priorities) == 0 {
				want.Priorities = make([]int, rep.Dims()) // no priorities reads as level 0
			}
			sameRequest(t, n, &want, got)
		}
	})
}

// replayRows decodes an input LoadReplay accepted, row by row, without
// LoadReplay's dedupe or sort.
func replayRows(t *testing.T, data []byte) []core.Request {
	t.Helper()
	data = bytes.TrimLeft(data, " \t\r\n")
	var rows []core.Request
	if data[0] != '{' {
		trace, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("LoadReplay accepted a CSV that ReadCSV rejects: %v", err)
		}
		for _, r := range trace {
			rows = append(rows, *r)
		}
		return rows
	}
	for _, raw := range bytes.Split(data, []byte("\n")) {
		if raw = bytes.TrimSpace(raw); len(raw) == 0 {
			continue
		}
		var ln replayRequest
		if err := json.Unmarshal(raw, &ln); err != nil {
			t.Fatalf("LoadReplay accepted a line encoding/json rejects: %v", err)
		}
		rows = append(rows, core.Request(ln))
	}
	return rows
}
