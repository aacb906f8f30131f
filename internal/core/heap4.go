package core

import "math/bits"

// HeapItem is one element of a Heap4: the payload Val ordered by (Key,
// Seq), lower first. Seq breaks ties between equal keys.
type HeapItem[T any] struct {
	Key, Seq uint64
	Val      T
}

// before is the heap order. It takes the two keys as plain integers, not a
// method of the element type: Go compiles a generic body once per GC
// shape and calls a type parameter's methods through a dictionary, so a
// comparator supplied as a type parameter is an indirect call on every
// sift step and never inlines. This one inlines into both sift loops.
func before(k1, s1, k2, s2 uint64) bool {
	return k1 < k2 || k1 == k2 && s1 < s2
}

// pick is a branch-free match between (k0, s0) and (k1, s1): b is 1 when
// the second is strictly before the first, else 0, and (k, s) is the one b
// chooses. b is the borrow of the 128-bit difference (k1, s1) − (k0, s0),
// and -b is the mask that selects. siftDown's choice among four children
// runs on random keys, where a compare-and-branch mispredicts half the
// time.
func pick(k0, s0, k1, s1 uint64) (b, k, s uint64) {
	_, b = bits.Sub64(s1, s0, 0)
	_, b = bits.Sub64(k1, k0, b)
	m := -b
	return b, k0 ^ (k0^k1)&m, s0 ^ (s0^s1)&m
}

// Heap4 is a non-interface generic 4-ary min-heap of HeapItem[T]. It
// replaces container/heap on the dispatch hot path: elements are kept
// inline in one slice (no per-element boxing through `any`, no pointer
// chasing during sifts), the order reads the concrete Key and Seq fields
// stored beside the payload, the wider fan-out halves the sift depth, a
// sift moves a hole and writes the element once, and the slice's spare
// capacity acts as a freelist, so steady-state Push/Pop perform no heap
// allocation. The zero value is an empty heap ready for use.
type Heap4[T any] struct {
	a []HeapItem[T]
}

// Len returns the number of elements.
func (h *Heap4[T]) Len() int { return len(h.a) }

// Peek returns a pointer to the minimum element; it is only valid until the
// next mutation. It panics on an empty heap.
func (h *Heap4[T]) Peek() *HeapItem[T] { return &h.a[0] }

// Push inserts x.
func (h *Heap4[T]) Push(x HeapItem[T]) {
	h.a = append(h.a, x)
	h.siftUp(len(h.a)-1, x)
}

// Pop removes and returns the minimum element.
func (h *Heap4[T]) Pop() HeapItem[T] {
	n := len(h.a) - 1
	top, last := h.a[0], h.a[n]
	h.a[n] = HeapItem[T]{} // release references held by the vacated slot
	h.a = h.a[:n]
	if n > 0 {
		h.siftDown(0, last)
	}
	return top
}

// Reset empties the heap but keeps its capacity. The vacated slots are
// zeroed, so they hold no references.
func (h *Heap4[T]) Reset() {
	clear(h.a)
	h.a = h.a[:0]
}

// Slice exposes the backing slice in heap (unspecified) order, for
// iteration. Changing a Key or Seq through it breaks the heap.
func (h *Heap4[T]) Slice() []HeapItem[T] { return h.a }

// SwapWith exchanges the contents of h and o; heap order is preserved.
func (h *Heap4[T]) SwapWith(o *Heap4[T]) { h.a, o.a = o.a, h.a }

// siftUp places x, whose slot is the hole at i, by moving the hole up past
// every parent x precedes.
func (h *Heap4[T]) siftUp(i int, x HeapItem[T]) {
	a := h.a
	for i > 0 {
		parent := (i - 1) / 4
		if !before(x.Key, x.Seq, a[parent].Key, a[parent].Seq) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = x
}

// siftDown places x into the hole at i by moving the hole down past every
// smallest child that precedes x.
func (h *Heap4[T]) siftDown(i int, x HeapItem[T]) {
	a := h.a
	n := len(a)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		c := first // the smallest child
		var ck, cs uint64
		if first+4 <= n {
			// A full group: a two-round tournament, each match won by the
			// right side only when it is strictly before the left, so the
			// first of equal children wins, as in the loop below.
			g := a[first : first+4 : first+4]
			b01, k01, s01 := pick(g[0].Key, g[0].Seq, g[1].Key, g[1].Seq)
			b23, k23, s23 := pick(g[2].Key, g[2].Seq, g[3].Key, g[3].Seq)
			b, k, s := pick(k01, s01, k23, s23)
			i01, i23 := int(b01), 2+int(b23)
			c += i01 ^ (i01^i23)&-int(b)
			ck, cs = k, s
		} else {
			for j := first + 1; j < n; j++ {
				if before(a[j].Key, a[j].Seq, a[c].Key, a[c].Seq) {
					c = j
				}
			}
			ck, cs = a[c].Key, a[c].Seq
		}
		if !before(ck, cs, x.Key, x.Seq) {
			break
		}
		a[i] = a[c]
		i = c
	}
	a[i] = x
}
