package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	trace := Open{
		Seed: 9, Count: 200, MeanInterarrival: 10_000,
		Dims: 3, Levels: 8, DeadlineMin: 100_000, DeadlineMax: 300_000,
		Cylinders: 3832, SizeMin: 4 << 10, SizeMax: 64 << 10,
		WriteFrac: 0.3,
	}.MustGenerate()
	// No generator assigns values: set them so dropping the value column
	// fails the comparison below.
	for i, r := range trace {
		r.Value = 1 + i%5
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, trace, 3); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trace) {
		t.Fatalf("read %d requests, want %d", len(got), len(trace))
	}
	for i, r := range trace {
		g := got[i]
		if g.ID != r.ID || g.Arrival != r.Arrival || g.Deadline != r.Deadline ||
			g.Cylinder != r.Cylinder || g.Size != r.Size || g.Write != r.Write ||
			g.Value != r.Value {
			t.Fatalf("request %d differs: %+v vs %+v", i, g, r)
		}
		for d := 0; d < 3; d++ {
			if g.Priorities[d] != r.Priorities[d] {
				t.Fatalf("request %d priority %d differs", i, d)
			}
		}
	}
}

func TestCSVZeroDims(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Open{
		Seed: 1, Count: 5, MeanInterarrival: 1000, Levels: 1,
	}.MustGenerate(), 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0].Priorities != nil {
		t.Errorf("zero-dim round trip wrong: %+v", got[0])
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not,a,trace\n1,2,3\n",
		"id,arrival_us,deadline_us,cylinder,size,write,value\nx,0,0,0,0,false,0\n",
		"id,arrival_us,deadline_us,cylinder,size,write,value\n1,0,0,0,0,maybe,0\n",
		"id,arrival_us,deadline_us,cylinder,size,write,value,priority_0\n1,0,0,0,0,false,0\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
