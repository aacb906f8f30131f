package core

// Gapped is a sequence kept in one slice with a gap at the front: the
// elements are buf[off:]. An insert or a removal shifts whichever side of
// its position is shorter, so the ends cost O(1) and the middle at most
// half the sequence. The slice keeps its memory: a removal at the front
// widens the gap, a front insert refills it, and an insert into a full
// slice closes the gap in place rather than grow while a quarter of the
// length lies in it. Vacated slots are cleared, so the spare capacity
// holds no references. Callers keep the order: the baselines' queues and
// the simulator's queue view each search their own key. The zero value is
// empty and ready for use.
type Gapped[E any] struct {
	buf []E
	off int
}

// Len returns the number of elements.
func (g *Gapped[E]) Len() int { return len(g.buf) - g.off }

// Live returns the elements, front first. It is valid until the next
// mutation.
func (g *Gapped[E]) Live() []E { return g.buf[g.off:] }

// Reset empties the sequence but keeps its capacity, clearing every slot.
func (g *Gapped[E]) Reset() {
	clear(g.buf)
	g.buf, g.off = g.buf[:0], 0
}

// InsertAt places e at index p, 0 ≤ p ≤ Len.
func (g *Gapped[E]) InsertAt(p int, e E) {
	n := g.Len()
	switch {
	case g.off > 0 && p < n-p:
		g.off--
		copy(g.buf[g.off:g.off+p], g.buf[g.off+1:])
		g.buf[g.off+p] = e
		return
	case p == n && (len(g.buf) < cap(g.buf) || g.off == 0):
		g.buf = append(g.buf, e)
		return
	case len(g.buf) == cap(g.buf) && g.off > 0 && 4*g.off >= n:
		// A quarter of the length lies in the gap: close it rather than
		// grow.
		m := copy(g.buf, g.Live())
		clear(g.buf[m:])
		g.buf, g.off = g.buf[:m], 0
	}
	i := g.off + p
	g.buf = append(g.buf, e) // one more slot, which the shift fills
	copy(g.buf[i+1:], g.buf[i:])
	g.buf[i] = e
}

// RemoveAt removes and returns the element at index i.
func (g *Gapped[E]) RemoveAt(i int) E {
	var zero E
	live := g.Live()
	e, last := live[i], len(live)-1
	switch {
	case i == last:
		live[last] = zero
		g.buf = g.buf[:len(g.buf)-1]
	case i == 0:
		live[0] = zero
		g.off++
	case i < last-i:
		copy(live[1:i+1], live[:i])
		live[0] = zero
		g.off++
	default:
		copy(live[i:], live[i+1:])
		live[last] = zero
		g.buf = g.buf[:len(g.buf)-1]
	}
	if g.off == len(g.buf) {
		g.buf, g.off = g.buf[:0], 0
	}
	return e
}
