package sim

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/workload"
)

// decisionWorkload generates the standard small workload used by the
// decision-layer tests.
func decisionWorkload(seed uint64) []*core.Request {
	return workload.Open{
		Seed: seed, Count: 400, MeanInterarrival: 12_000,
		Dims: 2, Levels: 8, DeadlineMin: 100_000, DeadlineMax: 500_000,
		Cylinders: 3832, SizeMin: 4 << 10, SizeMax: 128 << 10,
	}.MustGenerate()
}

func cascadedScheduler() sched.Scheduler {
	return core.MustScheduler("cascaded",
		core.EncapsulatorConfig{Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 800_000},
		core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true},
		0.05)
}

// recordsOf makes dt keep a copy of every record it captures.
func recordsOf(dt *DecisionTrace) *[]DecisionRecord {
	recs := new([]DecisionRecord)
	dt.OnRecord = func(rec *DecisionRecord) { *recs = append(*recs, *rec) }
	return recs
}

func TestDecisionTraceCapturesDecisions(t *testing.T) {
	dt := NewDecisionTrace(0)
	recs := recordsOf(dt)
	res := MustRun(Config{
		Disk: xp(), Scheduler: cascadedScheduler(),
		Options: Options{DropLate: true, Decisions: dt},
	}, decisionWorkload(1))

	if dt.Total() == 0 {
		t.Fatal("no decisions captured")
	}
	if got, want := dt.Total(), res.Served+res.Dropped; got != want {
		t.Errorf("decisions captured = %d, want served+dropped = %d", got, want)
	}
	if uint64(len(*recs)) != dt.Total() {
		t.Fatalf("hook saw %d records, trace counted %d", len(*recs), dt.Total())
	}
	sawWindow, sawMultiCandidate := false, false
	for i, rec := range *recs {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has Seq %d, want dense sequence", i, rec.Seq)
		}
		if rec.Depth < 1 {
			t.Fatalf("record %d has depth %d; the chosen request is a candidate", i, rec.Depth)
		}
		if rec.Chosen.V == NoValue {
			t.Fatalf("record %d: cascaded scheduler reports queued values, chosen V missing", i)
		}
		if rec.K != min(rec.Depth, MaxTopK) {
			t.Fatalf("record %d: K = %d with depth %d", i, rec.K, rec.Depth)
		}
		for k := 1; k < rec.K; k++ {
			if candByV(rec.TopK[k-1], rec.TopK[k]) > 0 {
				t.Fatalf("record %d: TopK not in (V, ID) rank order at %d", i, k)
			}
		}
		if rec.Deadlined > 0 {
			if rec.SlackP50 < rec.SlackMin || rec.SlackP50 > rec.SlackMax {
				t.Fatalf("record %d: slack p50 %d outside [%d, %d]",
					i, rec.SlackP50, rec.SlackMin, rec.SlackMax)
			}
		}
		if rec.Window != 0 {
			sawWindow = true
		}
		if rec.Depth > 1 {
			sawMultiCandidate = true
		}
	}
	if !sawWindow {
		t.Error("no record carried a blocking-window state from the cascaded dispatcher")
	}
	if !sawMultiCandidate {
		t.Error("no record had more than one candidate; workload too light to be meaningful")
	}
}

// Non-value schedulers still produce records: candidates rank by (Slack,
// ID) and values read NoValue.
func TestDecisionTraceNonValueScheduler(t *testing.T) {
	dt := NewDecisionTrace(0)
	recs := recordsOf(dt)
	MustRun(Config{
		Disk: xp(), Scheduler: sched.NewFCFS(),
		Options: Options{DropLate: true, Decisions: dt},
	}, decisionWorkload(3))
	for i, rec := range *recs {
		if rec.Chosen.V != NoValue || rec.VSpread != 0 {
			t.Fatalf("record %d: FCFS exposes no values, got V=%d spread=%d",
				i, rec.Chosen.V, rec.VSpread)
		}
		for k := 1; k < rec.K; k++ {
			if candBySlack(rec.TopK[k-1], rec.TopK[k]) > 0 {
				t.Fatalf("record %d: TopK not in (Slack, ID) rank order at %d", i, k)
			}
		}
	}
}

// Every decision JSONL line must be valid JSON with the schema fields, one
// line per captured decision, and byte-identical across identical runs.
func TestDecisionJSONL(t *testing.T) {
	run := func() (*bytes.Buffer, uint64) {
		var buf bytes.Buffer
		dt := NewDecisionTrace(0)
		dt.OnRecord = DecisionJSONL(&buf)
		MustRun(Config{
			Disk: xp(), Scheduler: cascadedScheduler(),
			Options: Options{DropLate: true, Decisions: dt},
		}, decisionWorkload(4))
		return &buf, dt.Total()
	}
	buf, total := run()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if uint64(len(lines)) != total {
		t.Fatalf("%d JSONL lines for %d decisions", len(lines), total)
	}
	var prevSeq int64 = -1
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		for _, key := range []string{"seq", "now", "head", "depth", "chosen", "topk"} {
			if _, ok := obj[key]; !ok {
				t.Fatalf("line %d missing %q: %s", i, key, line)
			}
		}
		if seq := int64(obj["seq"].(float64)); seq != prevSeq+1 {
			t.Fatalf("line %d: seq %d after %d", i, seq, prevSeq)
		} else {
			prevSeq = seq
		}
		if topk := obj["topk"].([]any); len(topk) == 0 || len(topk) > MaxTopK {
			t.Fatalf("line %d: topk has %d entries", i, len(topk))
		}
	}
	buf2, _ := run()
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("decision JSONL not byte-identical across identical runs")
	}
}

// A run with a decision trace attached must replay the exact trajectory of
// a run without one: capture is read-only.
func TestDecisionTraceDoesNotPerturb(t *testing.T) {
	trace := decisionWorkload(6)
	run := func(dt *DecisionTrace) ([]flatEvent, *Result) {
		var events []flatEvent
		res := MustRun(Config{
			Disk: xp(), Scheduler: cascadedScheduler(),
			Options: Options{DropLate: true,
				Decisions: dt,
				Trace:     func(ev TraceEvent) { events = append(events, flatten(ev)) }},
		}, smallTraceCopy(trace))
		return events, res
	}
	evPlain, resPlain := run(nil)
	dt := NewDecisionTrace(0)
	evTraced, resTraced := run(dt)
	if !reflect.DeepEqual(evPlain, evTraced) {
		t.Error("TraceEvent stream diverged with a decision trace attached")
	}
	if !reflect.DeepEqual(resPlain.Collector, resTraced.Collector) {
		t.Error("collector diverged with a decision trace attached")
	}
	if resPlain.HeadTravel != resTraced.HeadTravel {
		t.Error("head travel diverged with a decision trace attached")
	}
}

// candByV ranks candidates by (V, ID); candBySlack by (Slack, ID).
func candByV(a, b DecisionCandidate) int {
	if c := cmp.Compare(a.V, b.V); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

func candBySlack(a, b DecisionCandidate) int {
	if c := cmp.Compare(a.Slack, b.Slack); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// sortSummary is the candidate summary the decision trace computed before
// the queue view: the slacks and the candidates sorted in full, the top K
// copied off the head. Kept as the reference the view must reproduce.
func sortSummary(cands []DecisionCandidate, byV bool) DecisionRecord {
	var rec DecisionRecord
	cands = slices.Clone(cands)
	var slacks []int64
	for _, c := range cands {
		if c.Slack != NoDeadlineSlack {
			slacks = append(slacks, c.Slack)
		}
	}
	rec.Deadlined = len(slacks)
	if n := len(slacks); n > 0 {
		slices.Sort(slacks)
		rec.SlackMin, rec.SlackP50, rec.SlackMax = slacks[0], slacks[n/2], slacks[n-1]
	}
	if byV {
		slices.SortFunc(cands, candByV)
		if n := len(cands); n > 0 {
			rec.VSpread = cands[n-1].V - cands[0].V
		}
	} else {
		slices.SortFunc(cands, candBySlack)
	}
	rec.K = min(len(cands), MaxTopK)
	copy(rec.TopK[:], cands[:rec.K])
	return rec
}

// sameSummary reports how got's queue summary differs from want's, ""
// when it does not.
func sameSummary(got, want *DecisionRecord) string {
	if got.K != want.K || got.TopK != want.TopK || got.VSpread != want.VSpread ||
		got.Deadlined != want.Deadlined || got.SlackMin != want.SlackMin ||
		got.SlackP50 != want.SlackP50 || got.SlackMax != want.SlackMax {
		return fmt.Sprintf("got K=%d top=%v spread=%d deadlined=%d slack=%d/%d/%d\nwant K=%d top=%v spread=%d deadlined=%d slack=%d/%d/%d",
			got.K, got.TopK[:got.K], got.VSpread, got.Deadlined, got.SlackMin, got.SlackP50, got.SlackMax,
			want.K, want.TopK[:want.K], want.VSpread, want.Deadlined, want.SlackMin, want.SlackP50, want.SlackMax)
	}
	return ""
}

// presetValues is FCFS whose AddValue reports the value its map holds for
// the request's ID, so a test can fill a queue view with chosen values.
type presetValues struct {
	*sched.FCFS
	v map[uint64]uint64
}

func (p presetValues) AddValue(r *core.Request, now int64, head int) uint64 {
	p.Add(r, now, head)
	return p.v[r.ID]
}

// viewNow is the clock of the view tests: far enough from 0 that no
// candidate's deadline lands on 0, which means "no deadline".
const viewNow = 1000

// viewOf queues a request per candidate on a fresh view, in order: its
// deadline is viewNow+Slack, and a NoDeadlineSlack candidate has none
// when its ID is even and the deadline viewNow+NoDeadlineSlack, which
// Request.Slack reports as no deadline too, when it is odd. With byV the
// scheduler reports each candidate's V; without, it reports none.
func viewOf(cands []DecisionCandidate, byV bool) (*queueView, []*core.Request) {
	p := presetValues{FCFS: sched.NewFCFS(), v: map[uint64]uint64{}}
	var s sched.Scheduler = p.FCFS
	if byV {
		s = p
	}
	q := new(queueView)
	q.reset(s)
	reqs := make([]*core.Request, len(cands))
	for i, c := range cands {
		reqs[i] = &core.Request{ID: c.ID, Cylinder: c.Cylinder, Deadline: viewNow + c.Slack}
		if c.Slack == NoDeadlineSlack && c.ID%2 == 0 {
			reqs[i].Deadline = 0
		}
		p.v[c.ID] = c.V
		q.add(reqs[i], viewNow, 0)
	}
	return q, reqs
}

// checkView compares the summary of a view holding cands with sortSummary
// over cands, then takes the candidates out in the order of perm and
// compares again after each removal.
func checkView(t *testing.T, cands []DecisionCandidate, byV bool, perm []int) {
	t.Helper()
	cands = slices.Clone(cands)
	if !byV {
		for i := range cands {
			cands[i].V = NoValue
		}
	}
	q, reqs := viewOf(cands, byV)
	left := slices.Clone(cands)
	for k := 0; ; k++ {
		if q.len() != len(left) {
			t.Fatalf("view holds %d, want %d", q.len(), len(left))
		}
		var got DecisionRecord
		q.summary(&got, viewNow)
		want := sortSummary(left, byV)
		if diff := sameSummary(&got, &want); diff != "" {
			t.Fatalf("byV=%v over %v:\n%s", byV, left, diff)
		}
		lo, hi := q.values()
		wantLo, wantHi := uint64(0), uint64(0)
		if byV && len(left) > 0 {
			wantLo, wantHi = slices.MinFunc(left, candByV).V, slices.MaxFunc(left, candByV).V
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("byV=%v over %v: values %d..%d, want %d..%d", byV, left, lo, hi, wantLo, wantHi)
		}
		for _, c := range left {
			r := reqs[slices.IndexFunc(cands, func(d DecisionCandidate) bool { return d.ID == c.ID })]
			if v := q.value(r); v != c.V {
				t.Fatalf("byV=%v: request %d queued at %d, view says %d", byV, c.ID, c.V, v)
			}
		}
		if k == len(perm) {
			return
		}
		r := reqs[perm[k]]
		q.remove(r)
		left = slices.DeleteFunc(left, func(c DecisionCandidate) bool { return c.ID == r.ID })
	}
}

// randomCandidates draws n candidates with distinct shuffled IDs 1..n,
// values in [0, vRange), slacks in [-slackRange/2, slackRange/2), and no
// deadline with probability noDeadline/4. Small ranges force ties.
func randomCandidates(rng *rand.Rand, n, vRange, slackRange, noDeadline int) []DecisionCandidate {
	cands := make([]DecisionCandidate, n)
	for i, id := range rng.Perm(n) {
		cands[i] = DecisionCandidate{
			ID: uint64(id) + 1, Cylinder: rng.Intn(3832),
			V: uint64(rng.Intn(vRange)), Slack: int64(rng.Intn(slackRange) - slackRange/2),
		}
		if rng.Intn(4) < noDeadline {
			cands[i].Slack = NoDeadlineSlack
		}
	}
	return cands
}

// The queue view's summary equals the sorts it replaced — K, TopK,
// VSpread, the slack min/median/max, the value range and every queued
// value — on hand-picked sets and random ones, as built and after each
// removal.
func TestSummarizeMatchesSortReference(t *testing.T) {
	c := func(id, v uint64, slack int64) DecisionCandidate {
		return DecisionCandidate{ID: id, Cylinder: int(id), V: v, Slack: slack}
	}
	none := NoDeadlineSlack
	descending := make([]DecisionCandidate, 20)
	for i := range descending {
		descending[i] = c(uint64(i+1), uint64(100-i), int64(50-i))
	}
	cases := map[string][]DecisionCandidate{
		"empty":            nil,
		"one":              {c(7, 3, 10)},
		"one, no deadline": {c(7, 3, none)},
		"no deadlines":     {c(1, 5, none), c(2, 4, none), c(3, 6, none)},
		"tied V, IDs out of order": {c(9, 1, 0), c(3, 1, 0), c(5, 1, 0), c(1, 2, 0), c(4, 0, 0),
			c(8, 1, 0), c(2, 1, 0), c(6, 1, 0), c(7, 1, 0), c(10, 1, 0)},
		"tied slack, even count": {c(4, 9, -3), c(1, 8, -3), c(3, 7, 5), c(2, 6, -3)},
		"exactly MaxTopK":        descending[:MaxTopK],
		"MaxTopK+1":              descending[:MaxTopK+1],
		"descending":             descending,
		"all equal":              {c(5, 2, 2), c(4, 2, 2), c(3, 2, 2), c(2, 2, 2), c(1, 2, 2), c(6, 2, 2), c(7, 2, 2), c(8, 2, 2), c(9, 2, 2)},
		"extreme values":         {c(1, 0, -1<<40), c(2, NoValue-1, 1<<40), c(3, 1<<63, none)},
		// Deadlines at now ± 2^62 and just past now + 2^62, negative
		// deadlines, and both spellings of "no deadline" (IDs 1 and 3 at
		// now + 2^62, IDs 2 and 6 with none), interleaved by ID.
		"around no deadline": {c(1, 5, none), c(2, 4, none+1), c(3, 6, none), c(4, 1, -none), c(5, 2, none-1),
			c(6, 9, none), c(7, 3, -viewNow-1), c(8, 8, none+1), c(9, 7, 0)},
	}
	for name, cands := range cases {
		t.Run(name, func(t *testing.T) {
			for _, byV := range []bool{true, false} {
				perm := make([]int, len(cands))
				for i := range perm {
					perm[i] = (i*7 + 3) % len(cands) // a fixed shuffle when gcd(7, n) = 1
				}
				if len(cands)%7 == 0 {
					perm = rand.New(rand.NewSource(1)).Perm(len(cands))
				}
				checkView(t, cands, byV, perm)
			}
		})
	}
	rng := rand.New(rand.NewSource(1))
	for range 500 {
		cands := randomCandidates(rng, rng.Intn(201), 1+rng.Intn(40), 1+rng.Intn(40), rng.Intn(4))
		checkView(t, cands, rng.Intn(2) == 0, rng.Perm(len(cands)))
	}
}

func FuzzDecisionSummary(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(4), uint8(3), true)
	f.Add(int64(2), uint8(200), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(3), uint8(9), uint8(255), uint8(255), uint8(2), true)
	f.Add(int64(4), uint8(57), uint8(3), uint8(16), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, n, vRange, slackRange, noDeadline uint8, byV bool) {
		rng := rand.New(rand.NewSource(seed))
		cands := randomCandidates(rng, int(n)%201, int(vRange)+1, int(slackRange)+1, int(noDeadline)%4)
		checkView(t, cands, byV, rng.Perm(len(cands)))
	})
}

// benchCascadeConfig is the benchmark's cascade (bench/arms.go): Hilbert
// SFC1 over dims priority dimensions at 8 levels, f = 1, slack-mode
// deadlines over horizon µs, head-relative seek at R = 3 on the Table 1
// disk's 3832 cylinders.
func benchCascadeConfig(t testing.TB, dims int, horizon int64) core.EncapsulatorConfig {
	t.Helper()
	curve, err := sfc.New("hilbert", dims, 8)
	if err != nil {
		t.Fatal(err)
	}
	return core.EncapsulatorConfig{
		Curve1: curve, Levels: 8, UseDeadline: true, F: 1,
		DeadlineHorizon: horizon, DeadlineSpan: horizon, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: 3832,
	}
}

// benchCascade puts v, a criterion over enc, in front of the benchmark's
// dispatcher for mode: the conditionally preemptive one has a window of
// 5 % of enc's value space with SP and ER (e = 2).
func benchCascade(t testing.TB, enc *core.Encapsulator, v core.Valuer, mode core.PreemptMode) *core.Scheduler {
	t.Helper()
	dcfg := core.DispatcherConfig{Mode: mode}
	if mode == core.ConditionallyPreemptive {
		dcfg.SP, dcfg.ER, dcfg.Expansion = true, true, 2
		dcfg.Window = uint64(0.05 * float64(enc.MaxValue()))
	}
	s, err := core.NewValueScheduler("cascaded", v, 3832, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recordingValuer wraps an encapsulator, counting ValueAt calls and
// keeping the first value computed for each request ID: the one Add queued
// it at, in a run where every request is added once.
type recordingValuer struct {
	enc    *core.Encapsulator
	calls  uint64
	queued map[uint64]uint64
}

func (r *recordingValuer) ValueAt(q *core.Request, now int64, head int, progress uint64) uint64 {
	v := r.enc.ValueAt(q, now, head, progress)
	r.calls++
	if _, ok := r.queued[q.ID]; !ok {
		r.queued[q.ID] = v
	}
	return v
}

// recordedCascade is benchCascade over a recordingValuer, for
// decisionWorkload's two priority dimensions and 500 ms deadlines.
func recordedCascade(t *testing.T, mode core.PreemptMode) (*core.Scheduler, *recordingValuer) {
	t.Helper()
	enc, err := core.NewEncapsulator(benchCascadeConfig(t, 2, 500_000))
	if err != nil {
		t.Fatal(err)
	}
	rv := &recordingValuer{enc: enc, queued: map[uint64]uint64{}}
	return benchCascade(t, enc, rv, mode), rv
}

// A decision record shows the values the dispatcher compared: every value
// in it is the one its request was enqueued at, and where the dispatcher
// simply pops the minimum (full preemption) the top-ranked candidate is
// the chosen one.
func TestDecisionValuesAreQueuedValues(t *testing.T) {
	for _, mode := range []core.PreemptMode{core.FullyPreemptive, core.ConditionallyPreemptive, core.NonPreemptive} {
		t.Run(mode.String(), func(t *testing.T) {
			s, rv := recordedCascade(t, mode)
			dt := NewDecisionTrace(0)
			captured := recordsOf(dt)
			MustRun(Config{Disk: xp(), Scheduler: s, Options: Options{DropLate: true, Decisions: dt}}, decisionWorkload(1))

			var recs, wrongV, multi, misranked int
			for _, rec := range *captured {
				recs++
				bad := rec.Chosen.V != rv.queued[rec.Chosen.ID]
				for _, c := range rec.TopK[:rec.K] {
					bad = bad || c.V != rv.queued[c.ID]
				}
				if bad {
					wrongV++
				}
				if rec.Depth >= 2 {
					multi++
					if rec.TopK[0].ID != rec.Chosen.ID {
						misranked++
					}
				}
			}
			if multi == 0 {
				t.Fatal("no multi-candidate decision; workload too light to be meaningful")
			}
			if wrongV > 0 {
				t.Errorf("%d of %d records carry a value other than the one the request was queued at", wrongV, recs)
			}
			if mode == core.FullyPreemptive && misranked > 0 {
				t.Errorf("%d of %d multi-candidate decisions rank another candidate above the one the dispatcher popped",
					misranked, multi)
			}
		})
	}
}

// With all four observers attached, v_c is computed exactly once per
// request, at enqueue: no observer recomputes it.
func TestObservedRunValueAtOncePerAdd(t *testing.T) {
	s, rv := recordedCascade(t, core.ConditionallyPreemptive)
	m := new(core.Metrics)
	s.SetMetrics(m)
	dt := NewDecisionTrace(0)
	tel := NewTelemetry(50_000)
	sh := NewShadow("edf", sched.NewEDF())
	res := MustRun(Config{Disk: xp(), Scheduler: s, Options: Options{
		DropLate: true, Trace: JSONLTrace(io.Discard), Decisions: dt, Telemetry: tel, Shadows: []*Shadow{sh},
	}}, decisionWorkload(1))
	adds := m.Adds.Load()
	if adds != uint64(res.Arrived) || dt.Total() == 0 || tel.Rows() == 0 || res.Shadows[0].Decisions == 0 {
		t.Fatalf("observers idle or requests missing: adds %d of %d arrived, decisions %d, telemetry rows %d, shadow decisions %d",
			adds, res.Arrived, dt.Total(), tel.Rows(), res.Shadows[0].Decisions)
	}
	if rv.calls != adds {
		t.Errorf("%d ValueAt calls for %d adds (%.2f per add), want exactly one per add",
			rv.calls, adds, float64(rv.calls)/float64(adds))
	}
}
