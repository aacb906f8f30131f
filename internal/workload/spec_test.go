package workload

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"sfcsched/internal/core"
)

// specVariants covers every draw path of the Spec generator, mirroring
// openVariants: each branch that consumes RNG draws must be exercised so
// a draw-order divergence between Generate and GenerateArena cannot hide.
func specVariants() []Spec {
	return []Spec{
		// Single Poisson client, the §5 shape.
		{Seed: 1, Clients: []Client{{
			Name: "steady", Count: 500, MeanInterarrival: 10_000, Dims: 3, Levels: 8,
			DeadlineMin: 100_000, DeadlineMax: 300_000, Cylinders: 3832,
			Size: 64 << 10, WriteFrac: 0.3, ValueLevels: 5,
		}}},
		// Gamma bursts with rate windows, Zipf levels.
		{Seed: 2, Clients: []Client{{
			Name: "bursty", Count: 400, MeanInterarrival: 20_000,
			Process: GammaArrivals, Shape: 0.5, Burst: 4, Dims: 2, Levels: 8,
			Dist: Zipf, Cylinders: 1000, Size: 16 << 10,
			Windows: []Window{{From: 1_000_000, To: 3_000_000, Factor: 6}},
		}}},
		// Weibull pacing, sequential walk in a zone, normal levels, no deadlines.
		{Seed: 3, Clients: []Client{{
			Name: "scrub", Count: 300, MeanInterarrival: 15_000,
			Process: WeibullArrivals, Shape: 2, Dims: 2, Levels: 16, Dist: Normal,
			Cylinders: 2048, ZoneLo: 1024, ZoneHi: 2048, Sequential: true,
			Size: 128 << 10, Tenant: 2, Class: 2,
		}}},
		// Dimensionless requests.
		{Seed: 4, Clients: []Client{{
			Name: "flat", Count: 200, MeanInterarrival: 5_000, Dims: 0, Levels: 1,
			DeadlineMin: 50_000, DeadlineMax: 50_000,
		}}},
		// Three heterogeneous cohorts merged.
		{Seed: 5, Clients: []Client{
			{Name: "stream", Count: 250, MeanInterarrival: 25_000, Dims: 2, Levels: 8,
				DeadlineMin: 75_000, DeadlineMax: 150_000, Cylinders: 4096,
				ZoneLo: 0, ZoneHi: 2048, Size: 64 << 10},
			{Name: "edit", Count: 120, MeanInterarrival: 50_000,
				Process: GammaArrivals, Shape: 0.5, Burst: 4, Dims: 2, Levels: 8,
				Cylinders: 4096, ZoneLo: 0, ZoneHi: 2048, Size: 64 << 10,
				WriteFrac: 0.5, Tenant: 1, Class: 1},
			{Name: "scrub", Count: 130, MeanInterarrival: 40_000,
				Process: WeibullArrivals, Shape: 2, Dims: 2, Levels: 8,
				Cylinders: 4096, ZoneLo: 2048, ZoneHi: 4096, Sequential: true,
				Size: 64 << 10, Tenant: 2, Class: 2},
		}},
	}
}

// heapSpec is the per-request-allocating Spec generator Generate used to
// be, kept as an independent reference for the arena form.
func heapSpec(s Spec) []*core.Request {
	dims := s.Dims()
	reqs := make([]*core.Request, 0, s.Count())
	for ci, c := range s.Clients {
		base := len(reqs)
		for i := 0; i < c.Count; i++ {
			r := &core.Request{}
			if dims > 0 {
				r.Priorities = make([]int, dims)
			}
			reqs = append(reqs, r)
		}
		c.generate(s.clientRNG(ci), func(i int) *core.Request { return reqs[base+i] })
	}
	sortAndRenumber(reqs)
	return reqs
}

func TestSpecGenerateArenaMatchesGenerate(t *testing.T) {
	for vi, s := range specVariants() {
		var a Arena
		sameTrace(t, fmt.Sprintf("variant %d", vi), heapSpec(s), s.MustGenerateArena(&a))
		sameTrace(t, fmt.Sprintf("variant %d, own arena", vi), heapSpec(s), s.MustGenerate())
	}
}

func TestSpecDeterminism(t *testing.T) {
	s := specVariants()[4]
	sameTrace(t, "repeat", s.MustGenerate(), s.MustGenerate())
}

func TestSpecArenaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	s := specVariants()[4]
	var a Arena
	s.MustGenerateArena(&a) // size the slabs
	allocs := testing.AllocsPerRun(10, func() {
		if got := s.MustGenerateArena(&a); len(got) != s.Count() {
			t.Fatal("short trace")
		}
	})
	if allocs > 2 {
		t.Errorf("spec arena regeneration allocates %v per trace, want <= 2", allocs)
	}
}

// Clients draw from private seed-offset streams, so a cohort's requests
// are identical whatever other cohorts share the spec.
func TestSpecClientStreamsAreIndependent(t *testing.T) {
	mixed := specVariants()[4]
	solo := Spec{Seed: mixed.Seed, Clients: mixed.Clients[:1]}
	want := solo.MustGenerate()
	var got []*core.Request
	for _, r := range mixed.MustGenerate() {
		if r.Tenant == 0 {
			got = append(got, r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("client 0 contributed %d requests in the mix, %d alone", len(got), len(want))
	}
	for i := range want {
		a, b := *want[i], *got[i]
		a.ID, b.ID = 0, 0 // IDs renumber across the merged trace
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("request %d of client 0 changed when cohorts were added:\nalone: %+v\nmixed: %+v", i, a, b)
		}
	}
}

func TestSpecTraceIsSortedAndRenumbered(t *testing.T) {
	trace := specVariants()[4].MustGenerate()
	for i, r := range trace {
		if r.ID != uint64(i+1) {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if i > 0 && r.Arrival < trace[i-1].Arrival {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
}

func TestSpecValidationErrors(t *testing.T) {
	ok := Client{Name: "c", Count: 10, MeanInterarrival: 1000, Dims: 1, Levels: 4, Cylinders: 100}
	cases := []struct {
		name string
		mut  func(*Client)
		want string
	}{
		{"no-count", func(c *Client) { c.Count = 0 }, "Count"},
		{"no-mean", func(c *Client) { c.MeanInterarrival = 0 }, "MeanInterarrival"},
		{"bad-process", func(c *Client) { c.Process = arrivalProcessCount }, "arrival process"},
		{"bad-levels", func(c *Client) { c.Levels = 0 }, "priority shape"},
		{"bad-deadline", func(c *Client) { c.DeadlineMin = 10; c.DeadlineMax = 5 }, "DeadlineMax"},
		{"bad-zone", func(c *Client) { c.ZoneLo = 50; c.ZoneHi = 200 }, "zone"},
		{"bad-window", func(c *Client) { c.Windows = []Window{{From: 5, To: 5, Factor: 2}} }, "window"},
		{"bad-factor", func(c *Client) { c.Windows = []Window{{From: 0, To: 5, Factor: 0}} }, "window"},
	}
	for _, tc := range cases {
		c := ok
		tc.mut(&c)
		_, err := Spec{Seed: 1, Clients: []Client{c}}.Generate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if _, err := (Spec{Seed: 1}).Generate(); err == nil {
		t.Error("empty spec did not error")
	}
	mixedDims := Spec{Seed: 1, Clients: []Client{ok, {Name: "d", Count: 10, MeanInterarrival: 1000, Dims: 2, Levels: 4}}}
	if _, err := mixedDims.Generate(); err == nil || !strings.Contains(err.Error(), "Dims") {
		t.Errorf("mixed dims error = %v, want mention of Dims", err)
	}
}

// Statistical validation of the arrival processes as the Spec generator
// wires them: the realized inter-arrival gaps of each process must match
// the theoretical mean and coefficient of variation. The table iterates
// the ArrivalProcess enum exhaustively, so adding a process without a
// validation row fails the test.
func TestSpecArrivalProcessStatistics(t *testing.T) {
	type row struct {
		shape float64
		cv    float64 // theoretical stddev/mean of the gap
	}
	g := math.Gamma
	rows := map[ArrivalProcess]row{
		Poisson:         {shape: 0, cv: 1},
		GammaArrivals:   {shape: 0.5, cv: math.Sqrt2},
		WeibullArrivals: {shape: 2, cv: math.Sqrt(g(2)-g(1.5)*g(1.5)) / g(1.5)},
	}
	const mean = 10_000
	const n = 20_000
	for p := ArrivalProcess(0); p < arrivalProcessCount; p++ {
		r, okRow := rows[p]
		if !okRow {
			t.Fatalf("arrival process %v has no statistical validation row", p)
		}
		t.Run(p.String(), func(t *testing.T) {
			s := Spec{Seed: 11, Clients: []Client{{
				Name: "g", Count: n + 1, MeanInterarrival: mean,
				Process: p, Shape: r.shape, Dims: 0, Levels: 1,
			}}}
			trace := s.MustGenerate()
			gaps := make([]float64, n)
			sum := 0.0
			for i := 1; i <= n; i++ {
				gaps[i-1] = float64(trace[i].Arrival - trace[i-1].Arrival)
				sum += gaps[i-1]
			}
			m := sum / n
			var sq float64
			for _, x := range gaps {
				sq += (x - m) * (x - m)
			}
			cv := math.Sqrt(sq/(n-1)) / m
			// Gaps are truncated to whole microseconds, so allow the
			// integer bias on top of sampling error.
			if math.Abs(m-mean)/mean > 0.05 {
				t.Errorf("mean gap %.1f, want %d ±5%%", m, mean)
			}
			if math.Abs(cv-r.cv) > 0.06*math.Max(r.cv, 1) {
				t.Errorf("gap CV %.4f, want %.4f", cv, r.cv)
			}
		})
	}
}

// A rate window must scale the realized arrival rate by its factor.
func TestSpecRateWindowScalesArrivals(t *testing.T) {
	const mean = 10_000
	const factor = 4.0
	win := Window{From: 20_000_000, To: 40_000_000, Factor: factor}
	s := Spec{Seed: 13, Clients: []Client{{
		Name: "w", Count: 12_000, MeanInterarrival: mean, Dims: 0, Levels: 1,
		Windows: []Window{win},
	}}}
	trace := s.MustGenerate()
	inside, outside := 0, 0
	var outSpan int64
	last := trace[len(trace)-1].Arrival
	for _, r := range trace {
		if r.Arrival >= win.From && r.Arrival < win.To {
			inside++
		} else {
			outside++
		}
	}
	outSpan = last - (win.To - win.From)
	if outSpan <= 0 || inside == 0 || outside == 0 {
		t.Fatalf("degenerate split: inside %d outside %d span %d", inside, outside, outSpan)
	}
	rateIn := float64(inside) / float64(win.To-win.From)
	rateOut := float64(outside) / float64(outSpan)
	if ratio := rateIn / rateOut; ratio < factor*0.85 || ratio > factor*1.15 {
		t.Errorf("window rate ratio %.2f, want ~%.1f", ratio, factor)
	}
}

func TestScenarioSpecs(t *testing.T) {
	for _, name := range Scenarios() {
		t.Run(name, func(t *testing.T) {
			spec, err := ScenarioSpec(name, 7, 2000, 4096)
			if err != nil {
				t.Fatal(err)
			}
			trace := spec.MustGenerate()
			if len(trace) != 2000 {
				t.Fatalf("scenario %s generated %d requests, want 2000", name, len(trace))
			}
			var a Arena
			sameTrace(t, name, trace, spec.MustGenerateArena(&a))
		})
	}
	if _, err := ScenarioSpec("nope", 1, 1000, 1000); err == nil {
		t.Error("unknown scenario did not error")
	}
	if _, err := ScenarioSpec("steady", 1, 1, 1000); err == nil {
		t.Error("undersized scenario did not error")
	}
	if _, err := ScenarioSpec("steady", 1, 1000, 1); err == nil {
		t.Error("cylinder-less scenario did not error")
	}
}

// The mixed scenario must actually exercise cohort diversity: multiple
// classes, writes, a deadline-free scrub cohort confined to the upper
// zone.
func TestMixedScenarioComposition(t *testing.T) {
	trace := MustScenarioSpec("mixed", 3, 3000, 4096).MustGenerate()
	classes := map[int]int{}
	writes, noDeadline := 0, 0
	for _, r := range trace {
		classes[r.Class]++
		if r.Write {
			writes++
		}
		if r.Deadline == 0 {
			noDeadline++
			if r.Cylinder < 2048 {
				t.Fatalf("scrub request %d at cylinder %d, want upper zone", r.ID, r.Cylinder)
			}
		}
	}
	if len(classes) != 3 {
		t.Errorf("mixed scenario has %d classes, want 3", len(classes))
	}
	if writes == 0 {
		t.Error("mixed scenario generated no writes")
	}
	if noDeadline == 0 {
		t.Error("mixed scenario generated no deadline-free scrub requests")
	}
}
