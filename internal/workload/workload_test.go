package workload

import (
	"math"
	"testing"
)

func openCfg() Open {
	return Open{
		Seed: 1, Count: 5000, MeanInterarrival: 25_000,
		Dims: 3, Levels: 16, DeadlineMin: 500_000, DeadlineMax: 700_000,
		Cylinders: 3832, Size: 64 << 10,
	}
}

func TestOpenDeterministic(t *testing.T) {
	a := openCfg().MustGenerate()
	b := openCfg().MustGenerate()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Cylinder != b[i].Cylinder ||
			a[i].Deadline != b[i].Deadline || a[i].Priorities[2] != b[i].Priorities[2] {
			t.Fatalf("request %d differs between identical configs", i)
		}
	}
	c := openCfg()
	c.Seed = 2
	if d := c.MustGenerate(); d[0].Arrival == a[0].Arrival && d[1].Arrival == a[1].Arrival {
		t.Error("different seeds produced identical arrivals")
	}
}

func TestOpenArrivalsSortedAndExponential(t *testing.T) {
	reqs := openCfg().MustGenerate()
	var sum float64
	prev := int64(0)
	for _, r := range reqs {
		if r.Arrival < prev {
			t.Fatal("arrivals not sorted")
		}
		sum += float64(r.Arrival - prev)
		prev = r.Arrival
	}
	mean := sum / float64(len(reqs))
	if math.Abs(mean-25_000) > 1500 {
		t.Errorf("mean interarrival = %.0f, want ~25000", mean)
	}
}

func TestOpenFieldsInRange(t *testing.T) {
	reqs := openCfg().MustGenerate()
	for _, r := range reqs {
		if len(r.Priorities) != 3 {
			t.Fatal("wrong priority dims")
		}
		for _, p := range r.Priorities {
			if p < 0 || p >= 16 {
				t.Fatalf("priority %d out of range", p)
			}
		}
		if r.Cylinder < 0 || r.Cylinder >= 3832 {
			t.Fatalf("cylinder %d out of range", r.Cylinder)
		}
		rel := r.Deadline - r.Arrival
		if rel < 500_000 || rel > 700_000 {
			t.Fatalf("relative deadline %d outside [500ms,700ms]", rel)
		}
	}
}

func TestOpenRelaxedDeadlines(t *testing.T) {
	cfg := openCfg()
	cfg.DeadlineMin, cfg.DeadlineMax = 0, 0
	for _, r := range cfg.MustGenerate() {
		if r.Deadline != 0 {
			t.Fatal("relaxed config should not set deadlines")
		}
	}
}

func TestOpenDistributions(t *testing.T) {
	for _, dist := range []PriorityDist{Uniform, Normal, Zipf} {
		cfg := openCfg()
		cfg.Dist = dist
		counts := make([]int, cfg.Levels)
		for _, r := range cfg.MustGenerate() {
			counts[r.Priorities[0]]++
		}
		switch dist {
		case Normal:
			if counts[8] <= counts[0] {
				t.Errorf("normal: center %d <= edge %d", counts[8], counts[0])
			}
		case Zipf:
			if counts[0] <= counts[15] {
				t.Errorf("zipf: first %d <= last %d", counts[0], counts[15])
			}
		}
	}
}

func TestOpenWritesAndValues(t *testing.T) {
	cfg := openCfg()
	cfg.WriteFrac = 0.3
	writes := 0
	for _, r := range cfg.MustGenerate() {
		if r.Write {
			writes++
		}
		// Only a replayed trace carries application values.
		if r.Value != 0 {
			t.Fatalf("generated value %d, want 0", r.Value)
		}
	}
	frac := float64(writes) / float64(cfg.Count)
	if math.Abs(frac-0.3) > 0.03 {
		t.Errorf("write fraction = %.3f, want ~0.3", frac)
	}
}

func TestOpenValidation(t *testing.T) {
	bad := []Open{
		{},
		{Count: 10},
		{Count: 10, MeanInterarrival: 100, Levels: 0},
		{Count: 10, MeanInterarrival: 100, Levels: 4, DeadlineMin: 10, DeadlineMax: 5},
		{Count: 10, MeanInterarrival: 100, Levels: 4, Tenants: -1},
		{Count: 10, MeanInterarrival: 100, Levels: 4, Tenants: 4, TenantSkew: -0.5},
		{Count: 10, MeanInterarrival: 100, Levels: 4, Tenants: 8, Cylinders: 4, TenantZones: true},
	}
	for i, cfg := range bad {
		if _, err := cfg.Generate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestOpenTenantTagging(t *testing.T) {
	cfg := openCfg()
	cfg.Tenants = 10
	cfg.TenantSkew = 1.2
	cfg.Classes = 3
	cfg.TenantZones = true
	var perTenant [10]int
	for _, r := range cfg.MustGenerate() {
		if r.Tenant < 0 || r.Tenant >= cfg.Tenants {
			t.Fatalf("tenant %d out of [0,%d)", r.Tenant, cfg.Tenants)
		}
		if r.Class != r.Tenant%cfg.Classes {
			t.Fatalf("tenant %d has class %d, want %d", r.Tenant, r.Class, r.Tenant%cfg.Classes)
		}
		lo := r.Tenant * cfg.Cylinders / cfg.Tenants
		hi := (r.Tenant + 1) * cfg.Cylinders / cfg.Tenants
		if r.Cylinder < lo || r.Cylinder >= hi {
			t.Fatalf("tenant %d cylinder %d outside its zone [%d,%d)", r.Tenant, r.Cylinder, lo, hi)
		}
		perTenant[r.Tenant]++
	}
	// Zipf skew 1.2 concentrates traffic on the low tenants.
	if perTenant[0] <= perTenant[9] {
		t.Errorf("skew 1.2 gave tenant 0 %d requests vs tenant 9's %d", perTenant[0], perTenant[9])
	}
}

// Tenant tagging must not perturb the main RNG stream: the same config
// with Tenants on and off produces identical arrivals, priorities,
// deadlines, sizes and writes (cylinders differ only under TenantZones).
func TestOpenTenantTaggingPreservesStream(t *testing.T) {
	base := openCfg()
	base.WriteFrac = 0.3
	tagged := base
	tagged.Tenants = 7
	tagged.TenantSkew = 0.8
	tagged.Classes = 2
	a, b := base.MustGenerate(), tagged.MustGenerate()
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Deadline != b[i].Deadline ||
			a[i].Cylinder != b[i].Cylinder || a[i].Size != b[i].Size ||
			a[i].Write != b[i].Write || a[i].Priorities[1] != b[i].Priorities[1] {
			t.Fatalf("request %d diverged when tenant tagging was enabled:\noff: %+v\non:  %+v",
				i, *a[i], *b[i])
		}
	}
}

func streamCfg() Streams {
	return Streams{
		Seed: 1, Users: 75, Duration: 20_000_000,
		BitRate: 1.5e6, BlockSize: 64 << 10, Levels: 8,
		DeadlineMin: 750_000, DeadlineMax: 1_500_000,
		Cylinders: 3832, WriteFrac: 0.2, Burst: 3,
	}
}

func TestStreamsDeterministicAndSorted(t *testing.T) {
	a := streamCfg().MustGenerate()
	b := streamCfg().MustGenerate()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ or empty: %d vs %d", len(a), len(b))
	}
	prev := int64(0)
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Cylinder != b[i].Cylinder {
			t.Fatalf("request %d differs", i)
		}
		if a[i].Arrival < prev {
			t.Fatal("not sorted by arrival")
		}
		prev = a[i].Arrival
	}
}

func TestStreamsThroughputMatchesBitrate(t *testing.T) {
	cfg := streamCfg()
	reqs := cfg.MustGenerate()
	// Expected requests: users * duration / blockPeriod.
	blockPeriod := float64(cfg.BlockSize*8) / cfg.BitRate * 1e6
	want := float64(cfg.Users) * float64(cfg.Duration) / blockPeriod
	got := float64(len(reqs))
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("requests = %.0f, want ~%.0f", got, want)
	}
}

func TestStreamsBursty(t *testing.T) {
	reqs := streamCfg().MustGenerate()
	// With burst=3 many consecutive requests share an arrival timestamp.
	same := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival == reqs[i-1].Arrival {
			same++
		}
	}
	if float64(same)/float64(len(reqs)) < 0.4 {
		t.Errorf("only %d/%d shared timestamps; expected bursts", same, len(reqs))
	}
}

func TestStreamsPriorityAndDeadlineRanges(t *testing.T) {
	for _, r := range streamCfg().MustGenerate() {
		if r.Priorities[0] < 0 || r.Priorities[0] >= 8 {
			t.Fatalf("level %d out of range", r.Priorities[0])
		}
		rel := r.Deadline - r.Arrival
		if rel < 750_000 || rel > 1_500_000 {
			t.Fatalf("relative deadline %d out of range", rel)
		}
	}
}

func TestStreamsWriteMix(t *testing.T) {
	reqs := streamCfg().MustGenerate()
	writes := 0
	for _, r := range reqs {
		if r.Write {
			writes++
		}
	}
	frac := float64(writes) / float64(len(reqs))
	if frac < 0.05 || frac > 0.45 {
		t.Errorf("write fraction = %.3f, want around 0.2", frac)
	}
}

func TestStreamsMostlySequentialCylinders(t *testing.T) {
	cfg := streamCfg()
	cfg.Users = 1
	cfg.Burst = 1
	reqs := cfg.MustGenerate()
	small := 0
	for i := 1; i < len(reqs); i++ {
		d := reqs[i].Cylinder - reqs[i-1].Cylinder
		if d < 0 {
			d = -d
		}
		if d <= 1 {
			small++
		}
	}
	if float64(small)/float64(len(reqs)) < 0.8 {
		t.Errorf("single stream should be mostly sequential: %d/%d", small, len(reqs))
	}
}

// A NaN fails every comparison, so a range check written x < lo || x > hi
// lets it through. Every float field of the three generators must be
// range-checked in a form that rejects it, WriteFrac on all three.
func TestFloatFieldsOutOfRangeRejected(t *testing.T) {
	nan := math.NaN()
	client := func(mut func(*Client)) func() error {
		return func() error {
			c := Client{Name: "c", Count: 10, MeanInterarrival: 1000, Dims: 1, Levels: 4, Cylinders: 100}
			mut(&c)
			_, err := Spec{Seed: 1, Clients: []Client{c}}.Generate()
			return err
		}
	}
	open := func(mut func(*Open)) func() error {
		return func() error {
			w := openCfg()
			mut(&w)
			_, err := w.Generate()
			return err
		}
	}
	streams := func(mut func(*Streams)) func() error {
		return func() error {
			s := Streams{Users: 5, Duration: 1_000_000, BitRate: 1e6, BlockSize: 1024, Levels: 8,
				Cylinders: 100, DeadlineMin: 100, DeadlineMax: 200}
			mut(&s)
			_, err := s.Generate()
			return err
		}
	}
	for name, generate := range map[string]func() error{
		"Open.WriteFrac NaN":     open(func(w *Open) { w.WriteFrac = nan }),
		"Open.TenantSkew NaN":    open(func(w *Open) { w.Tenants, w.TenantSkew = 4, nan }),
		"Client.WriteFrac 1.5":   client(func(c *Client) { c.WriteFrac = 1.5 }),
		"Client.WriteFrac -0.5":  client(func(c *Client) { c.WriteFrac = -0.5 }),
		"Client.WriteFrac NaN":   client(func(c *Client) { c.WriteFrac = nan }),
		"Client.Shape NaN":       client(func(c *Client) { c.Process, c.Shape = GammaArrivals, nan }),
		"Client.Shape +Inf":      client(func(c *Client) { c.Process, c.Shape = GammaArrivals, math.Inf(1) }),
		"Window.Factor NaN":      client(func(c *Client) { c.Windows = []Window{{From: 0, To: 5, Factor: nan}} }),
		"Streams.WriteFrac 1.5":  streams(func(s *Streams) { s.WriteFrac = 1.5 }),
		"Streams.WriteFrac -0.5": streams(func(s *Streams) { s.WriteFrac = -0.5 }),
		"Streams.WriteFrac NaN":  streams(func(s *Streams) { s.WriteFrac = nan }),
		"Streams.BitRate NaN":    streams(func(s *Streams) { s.BitRate = nan }),
	} {
		if generate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The base configurations are valid.
	for _, generate := range []func() error{open(func(*Open) {}), client(func(*Client) {}), streams(func(*Streams) {})} {
		if err := generate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamsValidation(t *testing.T) {
	bad := []Streams{
		{},
		{Users: 5, Duration: 1000},
		{Users: 5, Duration: 1000, BitRate: 1e6, BlockSize: 1024, Levels: 8, Cylinders: 100},
		{Users: 5, Duration: 1000, BitRate: 1e6, BlockSize: 1024, Levels: 8, Cylinders: 100,
			DeadlineMin: 100, DeadlineMax: 50},
	}
	for i, cfg := range bad {
		if _, err := cfg.Generate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
