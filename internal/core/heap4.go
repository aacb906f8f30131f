package core

// Comparer is a strict-weak ordering over T. Implementations should be
// zero-size struct types: the comparator is then a type parameter rather
// than a stored func value, so comparisons dispatch statically instead of
// through a function pointer on every sift step.
type Comparer[T any] interface {
	Less(a, b *T) bool
}

// Heap4 is a non-interface generic 4-ary min-heap storing values of type
// T. It replaces container/heap on the dispatch hot path: elements are
// kept inline in one slice (no per-element boxing through `any`, no
// pointer chasing during sifts), the wider fan-out halves the sift depth,
// and the slice's spare capacity acts as a freelist, so steady-state
// Push/Pop perform no heap allocation. The zero value (with a zero-size
// comparator) is an empty heap ready for use.
type Heap4[T any, C Comparer[T]] struct {
	a   []T
	cmp C
}

// Len returns the number of elements.
func (h *Heap4[T, C]) Len() int { return len(h.a) }

// Peek returns a pointer to the minimum element; it is only valid until the
// next mutation. It panics on an empty heap.
func (h *Heap4[T, C]) Peek() *T { return &h.a[0] }

// Push inserts x.
func (h *Heap4[T, C]) Push(x T) {
	h.a = append(h.a, x)
	h.siftUp(len(h.a) - 1)
}

// Pop removes and returns the minimum element.
func (h *Heap4[T, C]) Pop() T {
	n := len(h.a) - 1
	top := h.a[0]
	h.a[0] = h.a[n]
	var zero T
	h.a[n] = zero // release references held by the vacated slot
	h.a = h.a[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return top
}

// Reset empties the heap but keeps its capacity. The vacated slots are
// zeroed, so they hold no references.
func (h *Heap4[T, C]) Reset() {
	clear(h.a)
	h.a = h.a[:0]
}

// Append adds x without restoring heap order; callers must Build before the
// next Peek/Push/Pop. Bulk loads Append n elements and Build once, which is
// O(n) (Floyd) instead of n sift-ups.
func (h *Heap4[T, C]) Append(x T) { h.a = append(h.a, x) }

// Build restores heap order over the whole slice.
func (h *Heap4[T, C]) Build() {
	for i := (len(h.a) - 2) / 4; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Slice exposes the backing slice in heap (unspecified) order, for
// iteration and in-place flag updates. Reordering entries through it breaks
// the heap.
func (h *Heap4[T, C]) Slice() []T { return h.a }

// SwapWith exchanges the contents of h and o. Both heaps must share the
// same ordering; heap order is preserved.
func (h *Heap4[T, C]) SwapWith(o *Heap4[T, C]) { h.a, o.a = o.a, h.a }

func (h *Heap4[T, C]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.cmp.Less(&h.a[i], &h.a[parent]) {
			return
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *Heap4[T, C]) siftDown(i int) {
	n := len(h.a)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := first
		for j := first + 1; j < last; j++ {
			if h.cmp.Less(&h.a[j], &h.a[min]) {
				min = j
			}
		}
		if !h.cmp.Less(&h.a[min], &h.a[i]) {
			return
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
}
