package core

import (
	"math/rand"
	"testing"
)

// item is the element type the heap tests use.
type item = HeapItem[queued]

// popAll drains h and returns the (Key, Seq) sequence.
func popAll(h *Heap4[queued]) []item {
	out := make([]item, 0, h.Len())
	for h.Len() > 0 {
		out = append(out, h.Pop())
	}
	return out
}

// less is the heap order written out: by Key, then by Seq.
func less(a, b item) bool { return a.Key < b.Key || a.Key == b.Key && a.Seq < b.Seq }

func checkSorted(t *testing.T, es []item) {
	t.Helper()
	for i := 1; i < len(es); i++ {
		if less(es[i], es[i-1]) {
			t.Fatalf("pop %d: (%d,%d) after (%d,%d)", i, es[i].Key, es[i].Seq, es[i-1].Key, es[i-1].Seq)
		}
	}
}

func TestHeap4SortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Heap4[queued]
	const n = 2000
	counts := map[uint64]int{}
	for i := 0; i < n; i++ {
		v := uint64(rng.Intn(300)) // few distinct values: exercise seq ties
		counts[v]++
		h.Push(item{Key: v, Seq: uint64(i)})
	}
	out := popAll(&h)
	if len(out) != n {
		t.Fatalf("popped %d of %d", len(out), n)
	}
	checkSorted(t, out)
	for _, e := range out {
		counts[e.Key]--
	}
	for v, c := range counts {
		if c != 0 {
			t.Fatalf("value %d count off by %d", v, c)
		}
	}
}

func TestHeap4MixedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Heap4[queued]
	seq := uint64(0)
	var drained []item
	for round := 0; round < 50; round++ {
		for i := 0; i < rng.Intn(40); i++ {
			h.Push(item{Key: uint64(rng.Intn(50)), Seq: seq})
			seq++
		}
		for i := rng.Intn(30); i > 0 && h.Len() > 0; i-- {
			drained = append(drained, h.Pop())
		}
		// Within one drain run order must hold; across runs it need not,
		// so only check the invariant that Peek is the minimum.
		if h.Len() > 0 {
			min := *h.Peek()
			for _, e := range h.Slice() {
				if less(e, min) {
					t.Fatalf("round %d: Peek %+v not minimal", round, min)
				}
			}
		}
	}
}

func TestHeap4SwapWith(t *testing.T) {
	var a, b Heap4[queued]
	a.Push(item{Key: 1})
	a.Push(item{Key: 2})
	b.Push(item{Key: 7})
	a.SwapWith(&b)
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("lens after swap: %d, %d", a.Len(), b.Len())
	}
	if a.Peek().Key != 7 || b.Peek().Key != 1 {
		t.Fatalf("mins after swap: %d, %d", a.Peek().Key, b.Peek().Key)
	}
}

func TestHeap4PopReleasesSlot(t *testing.T) {
	var h Heap4[queued]
	r := &Request{ID: 9}
	h.Push(item{Key: 1, Val: queued{req: r}})
	h.Push(item{Key: 2, Val: queued{req: r}})
	h.Pop()
	// The vacated tail slot must not pin the request pointer.
	if tail := h.a[:cap(h.a)][h.Len()]; tail.Val.req != nil {
		t.Error("popped slot still references the request")
	}
}
