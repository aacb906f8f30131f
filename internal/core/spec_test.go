package core

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// specItem is one request queued in specDispatcher.
type specItem struct {
	id, v, seq uint64
	preempter  bool // entered the serving queue by preemption or promotion
}

// specDispatcher is the §3 dispatcher written from the paper's prose and
// nothing of Dispatcher's machinery: two slices kept sorted by (v, arrival)
// with a linear scan, a preempter flag, no heap and no epochs. It is the
// oracle Dispatcher is checked against.
type specDispatcher struct {
	cfg                DispatcherConfig
	q, qw              []specItem // serving queue, waiting queue q'
	cur                uint64     // value of the request in service
	hasCur             bool
	w, seq             uint64
	preempts, promotes uint64
}

func newSpec(cfg DispatcherConfig) *specDispatcher {
	return &specDispatcher{cfg: cfg, w: cfg.Window}
}

func specInsert(q []specItem, it specItem) []specItem {
	i := 0
	for i < len(q) && (q[i].v < it.v || q[i].v == it.v && q[i].seq < it.seq) {
		i++
	}
	return slices.Insert(q, i, it)
}

// clears: v beats ref by more than the window (v < ref - w, no underflow).
func (s *specDispatcher) clears(v, ref uint64) bool { return ref > s.w && v < ref-s.w }

// expand is ER's growth step: times e (default 2), by at least one.
func (s *specDispatcher) expand() {
	if !s.cfg.ER {
		return
	}
	e := s.cfg.Expansion
	if e == 0 {
		e = 2
	}
	s.w = max(uint64(float64(s.w)*e), s.w+1)
}

func (s *specDispatcher) Add(id, v uint64) {
	it := specItem{id: id, v: v, seq: s.seq}
	s.seq++
	switch {
	case s.cfg.Mode == FullyPreemptive:
		s.q = specInsert(s.q, it)
	case s.cfg.Mode == ConditionallyPreemptive && s.hasCur && s.clears(v, s.cur):
		it.preempter = true
		s.preempts++
		s.expand()
		s.q = specInsert(s.q, it)
	default:
		s.qw = specInsert(s.qw, it)
	}
}

// Next returns the dispatched request's id, or false when both queues are
// empty (which ends the in-service request).
func (s *specDispatcher) Next() (uint64, bool) {
	if len(s.q) == 0 {
		if len(s.qw) == 0 {
			s.hasCur = false
			return 0, false
		}
		s.q, s.qw = s.qw, nil // the waiting batch is served; none of it preempted
	}
	for s.cfg.Mode == ConditionallyPreemptive && s.cfg.SP && len(s.qw) > 0 && s.clears(s.qw[0].v, s.q[0].v) {
		it := s.qw[0]
		s.qw = s.qw[1:]
		it.preempter = true
		s.promotes++
		s.expand()
		s.q = specInsert(s.q, it)
	}
	it := s.q[0]
	s.q = s.q[1:]
	if !it.preempter {
		s.w = s.cfg.Window
	}
	s.cur, s.hasCur = it.v, true
	return it.id, true
}

// specPair drives a Dispatcher and the spec with the same operations and
// reports the first observable difference: the dispatched request, Len,
// the current window, the queued (id, value) set, and the preemption and
// promotion counts.
type specPair struct {
	d      *Dispatcher
	s      *specDispatcher
	nextID uint64
}

func newSpecPair(cfg DispatcherConfig) *specPair {
	d := MustDispatcher(cfg)
	d.SetMetrics(&Metrics{})
	return &specPair{d: d, s: newSpec(cfg)}
}

type idValue struct{ id, v uint64 }

func (p *specPair) add(v uint64) {
	p.nextID++
	p.d.Add(&Request{ID: p.nextID}, v)
	p.s.Add(p.nextID, v)
}

// next dispatches on both sides and returns "" or what differed.
func (p *specPair) next() string {
	r := p.d.Next()
	id, ok := p.s.Next()
	switch {
	case (r != nil) != ok:
		return "one side is empty"
	case r != nil && r.ID != id:
		return "different request"
	}
	return ""
}

func (p *specPair) state() string {
	d, s := p.d, p.s
	if d.Len() != len(s.q)+len(s.qw) {
		return "Len"
	}
	if d.Window() != s.w {
		return "Window"
	}
	if m := d.Metrics(); m.Preemptions.Load() != s.preempts || m.Promotions.Load() != s.promotes {
		return "preemption or promotion count"
	}
	var got, want []idValue
	d.EachValue(func(r *Request, v uint64) { got = append(got, idValue{r.ID, v}) })
	for _, it := range slices.Concat(s.q, s.qw) {
		want = append(want, idValue{it.id, it.v})
	}
	byID := func(a, b idValue) int { return cmp.Compare(a.id, b.id) }
	slices.SortFunc(got, byID)
	slices.SortFunc(want, byID)
	if !slices.Equal(got, want) {
		return "queued set"
	}
	return ""
}

// specConfigs is every mode × w ∈ {0, 1, 2, ∞} × SP × ER.
func specConfigs() []DispatcherConfig {
	var out []DispatcherConfig
	for _, mode := range []PreemptMode{NonPreemptive, FullyPreemptive, ConditionallyPreemptive} {
		for _, w := range []uint64{0, 1, 2, math.MaxUint64} {
			for _, sp := range []bool{false, true} {
				for _, er := range []bool{false, true} {
					out = append(out, DispatcherConfig{Mode: mode, Window: w, SP: sp, ER: er})
				}
			}
		}
	}
	return out
}

// TestSection3SpecExhaustively runs every interleaving of six
// Add/Next operations over the values 0..3 — each shorter sequence is a
// prefix of one of them — on every configuration, comparing after each
// operation.
func TestSection3SpecExhaustively(t *testing.T) {
	const ops, choices = 6, 5 // choice 0 is Next, choice c > 0 is Add(c-1)
	total := 1
	for range ops {
		total *= choices
	}
	for _, cfg := range specConfigs() {
		for code := range total {
			p := newSpecPair(cfg)
			for i, c := 0, code; i < ops; i, c = i+1, c/choices {
				op := "Next"
				if c%choices == 0 {
					if diff := p.next(); diff != "" {
						t.Fatalf("%+v, sequence %d, op %d (%s): %s", cfg, code, i, op, diff)
					}
				} else {
					op = "Add"
					p.add(uint64(c%choices - 1))
				}
				if diff := p.state(); diff != "" {
					t.Fatalf("%+v, sequence %d, after op %d (%s): %s differs", cfg, code, i, op, diff)
				}
			}
		}
	}
}

// FuzzSection3Spec compares long streams: each op byte with low
// two bits 0 is a Next, any other byte adds a request of value byte>>2.
func FuzzSection3Spec(f *testing.F) {
	f.Add(uint8(2), uint8(4), true, true, []byte{0x81, 0x05, 0x00, 0x11, 0xFD, 0x00, 0x41, 0x02, 0x00, 0x00})
	f.Add(uint8(2), uint8(0), true, false, []byte{0x41, 0x00, 0x05, 0x09, 0x00, 0x00, 0x00})
	f.Add(uint8(1), uint8(7), false, true, []byte{0x31, 0x21, 0x11, 0x00, 0x01, 0x00})
	f.Add(uint8(0), uint8(255), true, true, []byte{0x31, 0x21, 0x00, 0x11, 0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, mode, window uint8, sp, er bool, ops []byte) {
		cfg := DispatcherConfig{Mode: PreemptMode(mode % 3), Window: uint64(window), SP: sp, ER: er}
		if window == math.MaxUint8 {
			cfg.Window = math.MaxUint64
		}
		p := newSpecPair(cfg)
		for i, b := range ops {
			if b&3 == 0 {
				if diff := p.next(); diff != "" {
					t.Fatalf("%+v, op %d (Next): %s", cfg, i, diff)
				}
			} else {
				p.add(uint64(b >> 2))
			}
			if diff := p.state(); diff != "" {
				t.Fatalf("%+v, after op %d: %s differs", cfg, i, diff)
			}
		}
	})
}
