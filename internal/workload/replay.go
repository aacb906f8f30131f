package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"

	"sfcsched/internal/core"
)

// Replay is a workload source reconstructed from a recorded trace: either
// a per-dispatch JSONL stream written by sim.JSONLTrace, or a request CSV
// written by WriteCSV. It holds one canonical copy of every request and
// regenerates the identical trace on demand, draw-free — no RNG is
// consumed, so a replay is deterministic by construction and can be fed to
// a different build, scheduler, or knob setting and diffed
// dispatch-by-dispatch against the original run (cmd/tracediff).
//
// A dispatch trace is recorded in *dispatch* order, which is not arrival
// order, and fault-injected runs log one line per service attempt of the
// same request. Loading therefore dedupes by request ID (a repeat must
// carry the same request fields; one that does not is an error, not a row
// to drop) and re-sorts by (arrival, ID) — exactly the generator order, because every generator
// assigns dense IDs in stable arrival order before the run.
type Replay struct {
	reqs []core.Request
	prio []int // compacted backing for all priority vectors
	dims int
}

// replayRequest is core.Request with the field names of the
// sim.JSONLTrace line format: a line decodes into it and converts to a
// core.Request, so the two cannot drift apart. Decision fields (now, wait,
// head, seek, service, dropped, faulted, queue) are ignored: they belong
// to the recorded run, not the workload, and are re-derived by
// re-simulating.
type replayRequest struct {
	ID         uint64 `json:"id"`
	Priorities []int  `json:"prio"`
	Deadline   int64  `json:"deadline"`
	Cylinder   int    `json:"cyl"`
	Size       int64  `json:"size"`
	Arrival    int64  `json:"arrival"`
	Write      bool   `json:"write"`
	Value      int    `json:"value"`
	Tenant     int    `json:"tenant"`
	Class      int    `json:"class"`
}

// LoadReplay reads a recorded trace from r. The format is sniffed from the
// first non-blank byte: '{' selects the JSONL dispatch-trace format,
// anything else the WriteCSV request CSV.
func LoadReplay(r io.Reader) (*Replay, error) {
	br := bufio.NewReader(r)
	for {
		b, err := br.Peek(1)
		if err != nil {
			return nil, fmt.Errorf("workload: replay source is empty: %w", err)
		}
		if b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r' {
			br.Discard(1)
			continue
		}
		read := ReadCSV
		if b[0] == '{' {
			read = readReplayJSONL
		}
		trace, err := read(br)
		if err != nil {
			return nil, err
		}
		if len(trace) == 0 {
			return nil, fmt.Errorf("workload: replay source holds no requests")
		}
		return newReplay(trace)
	}
}

// LoadReplayFile is LoadReplay over a file path.
func LoadReplayFile(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: opening replay trace: %w", err)
	}
	defer f.Close()
	return LoadReplay(f)
}

// readReplayJSONL decodes the request of every non-blank line.
func readReplayJSONL(r io.Reader) ([]*core.Request, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var trace []*core.Request
	for n := 1; sc.Scan(); n++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ln struct {
			Disk int `json:"disk"`
			replayRequest
		}
		if err := json.Unmarshal(raw, &ln); err != nil {
			return nil, fmt.Errorf("workload: replay line %d: %w", n, err)
		}
		if ln.Disk != 0 {
			return nil, fmt.Errorf("workload: replay line %d: disk %d — array traces record physical per-disk operations, not the logical request stream, and cannot be replayed", n, ln.Disk)
		}
		r := core.Request(ln.replayRequest)
		if err := checkTimes(&r); err != nil {
			return nil, fmt.Errorf("workload: replay line %d: %w", n, err)
		}
		trace = append(trace, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading replay trace: %w", err)
	}
	return trace, nil
}

// newReplay builds the canonical copy of a decoded trace, either format:
// it keeps the first record of each request ID (a fault retry logs the
// same request again; a repeat that contradicts it is an error), packs
// the priority vectors into one slab (a request without one reads as
// level 0 in every dimension) and restores generator order.
func newReplay(trace []*core.Request) (*Replay, error) {
	p := &Replay{reqs: make([]core.Request, 0, len(trace))}
	first := make(map[uint64]int) // ID -> index into p.reqs
	for n, r := range trace {
		if i, ok := first[r.ID]; ok {
			if !reflect.DeepEqual(*r, p.reqs[i]) {
				return nil, fmt.Errorf("workload: replay record %d: request %d differs from its earlier record", n+1, r.ID)
			}
			continue
		}
		if d := len(r.Priorities); d > 0 {
			if p.dims == 0 {
				p.dims = d
			} else if d != p.dims {
				return nil, fmt.Errorf("workload: replay trace mixes priority dimensionalities %d and %d", p.dims, d)
			}
		}
		first[r.ID] = len(p.reqs)
		p.reqs = append(p.reqs, *r)
	}
	if p.dims > 0 {
		p.prio = make([]int, len(p.reqs)*p.dims)
		for i := range p.reqs {
			v := p.prio[i*p.dims : (i+1)*p.dims : (i+1)*p.dims]
			copy(v, p.reqs[i].Priorities)
			p.reqs[i].Priorities = v
		}
	}
	p.sortCanonical()
	return p, nil
}

// sortCanonical restores generator order: stable by arrival, ties by ID.
// The priority views move with their requests; the backing slab need not
// be re-compacted.
func (p *Replay) sortCanonical() {
	sort.SliceStable(p.reqs, func(i, j int) bool {
		if p.reqs[i].Arrival != p.reqs[j].Arrival {
			return p.reqs[i].Arrival < p.reqs[j].Arrival
		}
		return p.reqs[i].ID < p.reqs[j].ID
	})
}

// Len returns the number of distinct requests in the recorded trace.
func (p *Replay) Len() int { return len(p.reqs) }

// Dims returns the priority dimensionality of the recorded requests (0 if
// none carried priorities).
func (p *Replay) Dims() int { return p.dims }

// Generate returns a fresh copy of the recorded trace in arrival order,
// in an arena of its own. Unlike the generator forms it consumes no RNG
// draws — the same Replay always yields the same trace.
func (p *Replay) Generate() []*core.Request { return p.GenerateArena(new(Arena)) }

// GenerateArena copies the recorded trace into a's slabs, allocation-free
// once the slabs have grown to size; a nil arena means a fresh one.
func (p *Replay) GenerateArena(a *Arena) []*core.Request {
	if a == nil {
		a = new(Arena)
	}
	n := len(p.reqs)
	reqs := a.requests(n)
	prio := a.priorities(n * p.dims)
	ptrs := a.pointers(n)
	for i := range reqs {
		reqs[i] = p.reqs[i]
		if p.dims > 0 {
			// The canonical sort moved requests but not the backing slab,
			// so vectors are copied per request, not slab to slab.
			v := prio[i*p.dims : (i+1)*p.dims : (i+1)*p.dims]
			copy(v, p.reqs[i].Priorities)
			reqs[i].Priorities = v
		}
		ptrs[i] = &reqs[i]
	}
	return ptrs
}
