package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
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
func less[T any](a, b HeapItem[T]) bool { return a.Key < b.Key || a.Key == b.Key && a.Seq < b.Seq }

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

// refHeap is the 4-ary heap with siftDown's plain loop at every level, the
// first of equal children winning: Heap4's slot layout must match it after
// every operation, which pins every pop order, payloads of equal (Key, Seq)
// included.
type refHeap []HeapItem[int]

func (r *refHeap) push(x HeapItem[int]) {
	a := append(*r, x)
	i := len(a) - 1
	for i > 0 && less(a[i], a[(i-1)/4]) {
		a[i], a[(i-1)/4] = a[(i-1)/4], a[i]
		i = (i - 1) / 4
	}
	*r = a
}

func (r *refHeap) pop() HeapItem[int] {
	a := *r
	top := a[0]
	a[0] = a[len(a)-1]
	a = a[:len(a)-1]
	for i := 0; ; {
		c := 4*i + 1
		if c >= len(a) {
			break
		}
		for j := c + 1; j < min(4*i+5, len(a)); j++ {
			if less(a[j], a[c]) {
				c = j
			}
		}
		if !less(a[c], a[i]) {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*r = a
	return top
}

// FuzzHeap4 interleaves Push and Pop. A byte with its top two bits set
// pops; any other pushes a key from its high nibble and a sequence number
// from its low two bits, each spread over the whole uint64 range, so keys,
// sequence numbers and whole (Key, Seq) pairs repeat. Every Pop must return
// a minimum of what is queued by (Key, Seq), checked against a sorted
// reference; what is popped must be what was pushed; and the slot layout
// must equal refHeap's throughout. The seeds walk the size through 0 to
// 100 and back, so every residue of the size mod 4, full and partial last
// child groups, is reached.
func FuzzHeap4(f *testing.F) {
	const pop = 0xC0
	climb := make([]byte, 0, 300) // push, push, pop: the size climbs to 100
	for i := range 100 {
		climb = append(climb, byte(i*37)%pop, byte(i*11+5)%pop, pop)
	}
	fill := make([]byte, 0, 200) // 100 pushes, then 100 pops
	for i := range 100 {
		fill = append(fill, byte(i*53)%pop)
	}
	for range 100 {
		fill = append(fill, pop)
	}
	f.Add(climb)
	f.Add(fill)
	f.Add(append(make([]byte, 60), bytes.Repeat([]byte{pop, 0x00, pop}, 30)...)) // one (Key, Seq)
	f.Add([]byte{pop, 0x12, 0x10, 0x13, 0x11, 0x10, pop, pop, pop, pop, pop})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var h Heap4[int]
		var ref refHeap
		var sorted []HeapItem[int] // what is queued, in (Key, Seq, Val) order
		for n, op := range ops {
			if op&pop == pop {
				if h.Len() == 0 {
					continue
				}
				got, want := h.Pop(), ref.pop()
				if got != want {
					t.Fatalf("op %d: Pop %+v, reference heap %+v", n, got, want)
				}
				if m := sorted[0]; got.Key != m.Key || got.Seq != m.Seq {
					t.Fatalf("op %d: Pop (%d, %d), minimum (%d, %d)", n, got.Key, got.Seq, m.Key, m.Seq)
				}
				i := slices.IndexFunc(sorted, func(e HeapItem[int]) bool { return e == got })
				if i < 0 {
					t.Fatalf("op %d: Pop %+v was never pushed or popped twice", n, got)
				}
				sorted = slices.Delete(sorted, i, i+1)
			} else {
				x := HeapItem[int]{Key: uint64(op>>4) * 0x1555555555555555, Seq: uint64(op&3) * 0x5555555555555555, Val: n}
				h.Push(x)
				ref.push(x)
				i, _ := slices.BinarySearchFunc(sorted, x, func(e, x HeapItem[int]) int {
					return cmp.Or(cmp.Compare(e.Key, x.Key), cmp.Compare(e.Seq, x.Seq), cmp.Compare(e.Val, x.Val))
				})
				sorted = slices.Insert(sorted, i, x)
			}
			for i, e := range h.Slice() {
				if e != ref[i] {
					t.Fatalf("op %d: slot %d holds %+v, reference heap %+v", n, i, e, ref[i])
				}
			}
		}
		if h.Len() != len(sorted) {
			t.Fatalf("%d queued, reference holds %d", h.Len(), len(sorted))
		}
	})
}
