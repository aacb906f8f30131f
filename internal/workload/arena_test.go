package workload

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// openVariants covers every draw path of the Open generator: each branch
// that consumes RNG draws must be exercised so a draw-order divergence
// between Generate and GenerateArena cannot hide.
func openVariants() []Open {
	return []Open{
		{Seed: 1, Count: 500, MeanInterarrival: 10_000, Dims: 3, Levels: 8,
			DeadlineMin: 100_000, DeadlineMax: 300_000, Cylinders: 3832,
			Size: 64 << 10, WriteFrac: 0.3},
		{Seed: 2, Count: 300, MeanInterarrival: 25_000, Dims: 4, Levels: 16, Dist: Normal},
		{Seed: 3, Count: 300, MeanInterarrival: 25_000, Dims: 2, Levels: 8, Dist: Zipf,
			Cylinders: 100, SizeMin: 4 << 10, SizeMax: 256 << 10},
		{Seed: 4, Count: 200, MeanInterarrival: 5_000, Dims: 0, Levels: 1,
			DeadlineMin: 50_000, DeadlineMax: 50_000},
		{Seed: 5, Count: 400, MeanInterarrival: 8_000, Dims: 2, Levels: 8,
			DeadlineMin: 100_000, DeadlineMax: 300_000, Cylinders: 4096,
			Size: 64 << 10, Tenants: 12, TenantSkew: 1.2, Classes: 3, TenantZones: true},
		{Seed: 6, Count: 300, MeanInterarrival: 8_000, Dims: 1, Levels: 4,
			Cylinders: 1000, Size: 32 << 10, Tenants: 5, Classes: 2, WriteFrac: 0.25},
	}
}

func sameTrace(t *testing.T, label string, plain, arena []*core.Request) {
	t.Helper()
	if len(plain) != len(arena) {
		t.Fatalf("%s: %d requests vs %d from arena", label, len(plain), len(arena))
	}
	for i := range plain {
		if !reflect.DeepEqual(*plain[i], *arena[i]) {
			t.Fatalf("%s: request %d diverges:\nplain: %+v\narena: %+v",
				label, i, *plain[i], *arena[i])
		}
	}
}

// heapOpen is the per-request-allocating Open generator Generate used to
// be, kept as an independent reference for the arena form.
func heapOpen(w Open) []*core.Request {
	rng := stats.NewRNG(w.Seed)
	var zipf *stats.Zipf
	if w.Dist == Zipf {
		zipf = stats.NewZipf(rng.Split(), w.Levels, 1.0)
	}
	tzipf := w.tenantZipf()
	reqs := make([]*core.Request, 0, w.Count)
	now := int64(0)
	for i := 0; i < w.Count; i++ {
		r := &core.Request{}
		if w.Dims > 0 {
			r.Priorities = make([]int, w.Dims)
		}
		w.genOne(i, &now, rng, zipf, tzipf, r)
		reqs = append(reqs, r)
	}
	return reqs
}

func TestOpenGenerateArenaMatchesGenerate(t *testing.T) {
	for vi, w := range openVariants() {
		var a Arena
		sameTrace(t, fmt.Sprintf("variant %d", vi), heapOpen(w), w.MustGenerateArena(&a))
		sameTrace(t, fmt.Sprintf("variant %d, own arena", vi), heapOpen(w), w.MustGenerate())
	}
}

// heapStreams is the per-request-allocating Streams generator Generate
// used to be, kept as an independent reference for the arena form.
func heapStreams(s Streams) []*core.Request {
	var reqs []*core.Request
	s.generate(max(s.Burst, 1), func(r core.Request, level int) {
		q := &core.Request{}
		*q = r
		q.Priorities = []int{level}
		reqs = append(reqs, q)
	})
	sortAndRenumber(reqs)
	return reqs
}

func TestStreamsGenerateArenaMatchesGenerate(t *testing.T) {
	s := Streams{
		Seed: 1, Users: 20, Duration: 5_000_000, BitRate: 1_500_000,
		BlockSize: 64 << 10, Levels: 8, DeadlineMin: 750_000, DeadlineMax: 1_500_000,
		Cylinders: 3832, WriteFrac: 0.2, Burst: 3,
	}
	var a Arena
	sameTrace(t, "streams", heapStreams(s), s.MustGenerateArena(&a))
	sameTrace(t, "streams, own arena", heapStreams(s), s.MustGenerate())
}

// Regenerating into the same arena must recycle the slabs (same backing
// memory) and still produce the right trace — including after a switch to
// a different, smaller configuration whose stale slab contents must not
// bleed through.
func TestArenaRecyclesSlabs(t *testing.T) {
	w := openVariants()[0]
	var a Arena
	first := w.MustGenerateArena(&a)
	p0 := first[0]
	second := w.MustGenerateArena(&a)
	if second[0] != p0 {
		t.Error("regeneration reallocated the request slab for an identical config")
	}
	sameTrace(t, "regenerated", w.MustGenerate(), second)

	smaller := openVariants()[3] // dims 0, shorter: stale priorities must not leak
	sameTrace(t, "shrunk", smaller.MustGenerate(), smaller.MustGenerateArena(&a))
	sameTrace(t, "regrown", w.MustGenerate(), w.MustGenerateArena(&a))
}

func TestGenerateArenaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	w := openVariants()[0]
	var a Arena
	w.MustGenerateArena(&a) // size the slabs
	allocs := testing.AllocsPerRun(10, func() {
		if got := w.MustGenerateArena(&a); len(got) != w.Count {
			t.Fatal("short trace")
		}
	})
	if allocs > 2 {
		t.Errorf("arena regeneration allocates %v per trace, want <= 2", allocs)
	}
}

// WriteCSV hand-appends its rows; the bytes must match encoding/csv
// exactly (same header, same "\n" endings, no quoting).
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	trace := openVariants()[0].MustGenerate()
	trace = append(trace, &core.Request{}) // zero row
	for i, r := range trace[:len(trace)-1] {
		r.Tenant, r.Class, r.Value = i%5, i%3, 1+i%7
	}
	dims := 3
	var got bytes.Buffer
	if err := WriteCSV(&got, trace, dims); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	header := []string{"id", "arrival_us", "deadline_us", "cylinder", "size", "write", "value", "tenant", "class"}
	for d := 0; d < dims; d++ {
		header = append(header, fmt.Sprintf("priority_%d", d))
	}
	cw.Write(header)
	for _, r := range trace {
		row := []string{
			strconv.FormatUint(r.ID, 10), strconv.FormatInt(r.Arrival, 10),
			strconv.FormatInt(r.Deadline, 10), strconv.Itoa(r.Cylinder),
			strconv.FormatInt(r.Size, 10), strconv.FormatBool(r.Write), strconv.Itoa(r.Value),
			strconv.Itoa(r.Tenant), strconv.Itoa(r.Class),
		}
		for d := 0; d < dims; d++ {
			p := 0
			if d < len(r.Priorities) {
				p = r.Priorities[d]
			}
			row = append(row, strconv.Itoa(p))
		}
		cw.Write(row)
	}
	cw.Flush()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("WriteCSV diverges from encoding/csv:\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

func benchTrace100k(b *testing.B) []*core.Request {
	b.Helper()
	trace, err := Open{
		Seed: 1, Count: 100_000, MeanInterarrival: 1_000, Dims: 3, Levels: 8,
		DeadlineMin: 100_000, DeadlineMax: 300_000, Cylinders: 3832,
		Size: 64 << 10, WriteFrac: 0.2,
	}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	// No generator assigns values; set them so the value column is live.
	for i, r := range trace {
		r.Value = 1 + i%4
	}
	return trace
}

func BenchmarkCSVRoundTrip100k(b *testing.B) {
	trace := benchTrace100k(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteCSV(&buf, trace, 3); err != nil {
			b.Fatal(err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if len(back) != len(trace) {
			b.Fatal("round trip lost rows")
		}
	}
	b.ReportMetric(float64(len(trace)*2*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkArenaGenerate(b *testing.B) {
	w := Open{
		Seed: 1, Count: 2000, MeanInterarrival: 10_000, Dims: 3, Levels: 8,
		DeadlineMin: 500_000, DeadlineMax: 700_000, Cylinders: 3832, Size: 64 << 10,
	}
	var a Arena
	w.MustGenerateArena(&a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := w.MustGenerateArena(&a); len(got) != w.Count {
			b.Fatal("short trace")
		}
	}
	b.ReportMetric(float64(w.Count*b.N)/b.Elapsed().Seconds(), "requests/s")
}

func BenchmarkPlainGenerate(b *testing.B) {
	w := Open{
		Seed: 1, Count: 2000, MeanInterarrival: 10_000, Dims: 3, Levels: 8,
		DeadlineMin: 500_000, DeadlineMax: 700_000, Cylinders: 3832, Size: 64 << 10,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := w.MustGenerate(); len(got) != w.Count {
			b.Fatal("short trace")
		}
	}
	b.ReportMetric(float64(w.Count*b.N)/b.Elapsed().Seconds(), "requests/s")
}
