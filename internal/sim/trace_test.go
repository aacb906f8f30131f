package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
)

func TestJSONLTraceStream(t *testing.T) {
	trace := []*core.Request{
		{ID: 0, Arrival: 0, Priorities: []int{1}, Cylinder: 100},
		{ID: 1, Arrival: 1, Priorities: []int{3}, Deadline: 10, Cylinder: 200},
		{ID: 2, Arrival: 2, Priorities: []int{0}, Cylinder: 300},
	}
	var buf bytes.Buffer
	res := MustRun(Config{
		Scheduler: sched.NewFCFS(), FixedService: 100_000,
		Options: Options{DropLate: true, Dims: 1, Levels: 4, Trace: JSONLTrace(&buf)},
	}, trace)

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if want := int(res.Served + res.Dropped); len(lines) != want {
		t.Fatalf("trace has %d lines, want %d (served %d + dropped %d)",
			len(lines), want, res.Served, res.Dropped)
	}
	type rec struct {
		Now     int64  `json:"now"`
		ID      uint64 `json:"id"`
		Arrival int64  `json:"arrival"`
		Wait    int64  `json:"wait"`
		Prio    []int  `json:"prio"`
		Service int64  `json:"service"`
		Dropped bool   `json:"dropped"`
		Queue   int    `json:"queue"`
	}
	var prev int64
	drops := 0
	for i, ln := range lines {
		var r rec
		if err := json.Unmarshal(ln, &r); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, ln)
		}
		if r.Now < prev {
			t.Errorf("line %d: clock went backwards (%d -> %d)", i, prev, r.Now)
		}
		prev = r.Now
		if r.Wait != r.Now-r.Arrival {
			t.Errorf("line %d: wait = %d, want %d", i, r.Wait, r.Now-r.Arrival)
		}
		if r.Dropped {
			drops++
			if r.Service != 0 {
				t.Errorf("line %d: dropped event has service time %d", i, r.Service)
			}
		} else if r.Service == 0 {
			t.Errorf("line %d: served event missing service time", i)
		}
	}
	if drops != int(res.Dropped) {
		t.Errorf("trace has %d drops, result says %d", drops, res.Dropped)
	}
}

// traceRecord is the flattened JSONL form of a TraceEvent, the declarative
// spec of the line format that JSONLTrace appends by hand.
type traceRecord struct {
	Now      int64  `json:"now"`
	Disk     int    `json:"disk,omitempty"`
	ID       uint64 `json:"id"`
	Cylinder int    `json:"cyl"`
	Arrival  int64  `json:"arrival"`
	Wait     int64  `json:"wait"`
	Deadline int64  `json:"deadline,omitempty"`
	Prio     []int  `json:"prio,omitempty"`
	Size     int64  `json:"size,omitempty"`
	Write    bool   `json:"write,omitempty"`
	Value    int    `json:"value,omitempty"`
	Tenant   int    `json:"tenant,omitempty"`
	Class    int    `json:"class,omitempty"`
	Head     int    `json:"head"`
	Seek     int64  `json:"seek,omitempty"`
	Service  int64  `json:"service,omitempty"`
	Dropped  bool   `json:"dropped,omitempty"`
	Faulted  bool   `json:"faulted,omitempty"`
	Queue    int    `json:"queue"`
}

// JSONLTrace hand-appends its lines; every byte must match what a
// json.Encoder over traceRecord would have produced, across every
// omitempty combination.
func TestJSONLTraceMatchesEncodingJSON(t *testing.T) {
	events := []TraceEvent{
		{Now: 0, Request: &core.Request{}},
		{Now: 123, DiskID: 3, Request: &core.Request{ID: 7, Cylinder: 42, Arrival: 100, Deadline: 999, Priorities: []int{0, 5, 2}, Size: 64, Write: true, Value: 12, Tenant: 3, Class: 1}, Head: 17, Seek: 4, Service: 9, QueueLen: 2},
		{Now: 50, Request: &core.Request{ID: 1, Arrival: 75, Priorities: []int{}, Size: 128}, Dropped: true},
		{Now: 1 << 40, Request: &core.Request{ID: ^uint64(0), Cylinder: -1, Arrival: -5, Deadline: -3, Priorities: []int{-2}, Size: -7, Value: -8, Tenant: -1, Class: -2}, Head: -9, Seek: -1, Service: -1, Faulted: true, QueueLen: -4},
		{Now: 10, DiskID: 1, Request: &core.Request{ID: 2, Arrival: 10, Deadline: 20, Write: true, Class: 2}, Dropped: true, Faulted: true, QueueLen: 6},
	}
	var got bytes.Buffer
	hook := JSONLTrace(&got)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, ev := range events {
		hook(ev)
		r := ev.Request
		if err := enc.Encode(traceRecord{
			Now: ev.Now, Disk: ev.DiskID, ID: r.ID, Cylinder: r.Cylinder,
			Arrival: r.Arrival, Wait: ev.Now - r.Arrival, Deadline: r.Deadline,
			Prio: r.Priorities, Size: r.Size, Write: r.Write, Value: r.Value,
			Tenant: r.Tenant, Class: r.Class,
			Head: ev.Head, Seek: ev.Seek, Service: ev.Service,
			Dropped: ev.Dropped, Faulted: ev.Faulted, Queue: ev.QueueLen,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("hand-marshaled trace diverges from encoding/json:\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

// A hook that fails mid-stream must not affect the simulation result.
func TestJSONLTraceWriterFailureIsIsolated(t *testing.T) {
	trace := smallTrace()
	plain := MustRun(Config{Disk: xp(), Scheduler: sched.NewFCFS()}, trace)
	traced := MustRun(Config{
		Disk: xp(), Scheduler: sched.NewFCFS(),
		Options: Options{Trace: JSONLTrace(&failAfter{n: 3})},
	}, smallTrace())
	if plain.Makespan != traced.Makespan || plain.Served != traced.Served {
		t.Error("trace hook changed simulation outcome")
	}
}

// failAfter errors every write after the first n.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWriter
	}
	f.n--
	return len(p), nil
}

var errWriter = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "sink failed" }
