package core

import (
	"slices"
	"testing"
)

// checkGapped fails unless g holds exactly want, front first, and no slot
// outside Live holds a request.
func checkGapped(t *testing.T, step int, g *Gapped[*Request], want []*Request) {
	t.Helper()
	if g.Len() != len(want) || !slices.Equal(g.Live(), want) {
		t.Fatalf("step %d: Len %d, holds %v, want %v", step, g.Len(), g.Live(), want)
	}
	spare := append(slices.Clone(g.buf[:g.off]), g.buf[len(g.buf):cap(g.buf)]...)
	if i := slices.IndexFunc(spare, func(r *Request) bool { return r != nil }); i >= 0 {
		t.Fatalf("step %d: a slot outside Live holds request %d (gap %d, length %d, capacity %d)",
			step, spare[i].ID, g.off, len(g.buf), cap(g.buf))
	}
}

// TestGappedClearsVacatedSlots: a removal from either side and a drain
// leave no removed element in the slice's spare capacity, and inserts at
// the front, middle and back keep the order.
func TestGappedClearsVacatedSlots(t *testing.T) {
	var g Gapped[*Request]
	reqs := make([]*Request, 6)
	for i := range reqs {
		reqs[i] = &Request{ID: uint64(i + 1)}
		g.InsertAt(g.Len(), reqs[i])
	}
	if got := g.RemoveAt(1); got != reqs[1] {
		t.Fatalf("RemoveAt(1) = %v, want request 2", got)
	}
	if got := g.RemoveAt(3); got != reqs[4] {
		t.Fatalf("RemoveAt(3) = %v, want request 5", got)
	}
	if g.off != 1 || g.buf[0] != nil || g.buf[:6][5] != nil {
		t.Fatalf("vacated slots still hold %v and %v", g.buf[0], g.buf[:6][5])
	}
	g.InsertAt(1, reqs[1]) // the front shifts into the gap
	g.InsertAt(4, reqs[4]) // the back shifts
	g.InsertAt(3, reqs[2]) // a second entry for request 3
	var ids []uint64
	for _, r := range g.Live() {
		ids = append(ids, r.ID)
	}
	if want := []uint64{1, 2, 3, 3, 4, 5, 6}; !slices.Equal(ids, want) {
		t.Fatalf("order %v, want %v", ids, want)
	}
	for g.Len() > 0 {
		g.RemoveAt(g.Len() / 2)
	}
	if g.off != 0 || slices.ContainsFunc(g.buf[:cap(g.buf)], func(r *Request) bool { return r != nil }) {
		t.Fatalf("drained store keeps offset %d or a removed request in %v", g.off, g.buf[:cap(g.buf)])
	}
}

// FuzzGapped runs a sequence of inserts and removals against a plain slice
// edited with slices.Insert and slices.Delete. Byte n of ops is one step:
//   - below 0x40, insert request n at ⌊b·(Len+1)/64⌋ (front or middle);
//   - 0x40 to 0x7F, insert request n at the back;
//   - 0x80 to 0xBF, remove index ⌊(b−0x80)·Len/64⌋ (front or middle);
//   - 0xC0 to 0xFE, remove the last;
//   - 0xFF, reset.
//
// A removal from an empty store is skipped. After every step the contents
// and Len must equal the model's, and no slot outside Live may hold a
// request. The seeds run a FIFO, a LIFO, a queue that serves near its front
// while arrivals land anywhere (the queue view's pattern, which widens the
// gap until a full slice closes it) and a grow-then-drain from the middle.
func FuzzGapped(f *testing.F) {
	fifo := make([]byte, 0, 300) // two appends, one front removal
	for range 100 {
		fifo = append(fifo, 0x40, 0x40, 0x80)
	}
	lifo := make([]byte, 0, 300) // two appends, one removal of the last
	for i := range 100 {
		lifo = append(lifo, 0x40, 0x40, byte(0xC0+i%2))
	}
	served := make([]byte, 0, 400) // arrivals anywhere, removals near the front
	for i := range 200 {
		served = append(served, byte(i*37)&0x3F, 0x80|byte(i%3))
		if i%4 == 0 {
			served = append(served, byte(i*11)&0x3F)
		}
	}
	grow := make([]byte, 0, 200) // inserts anywhere, then removals from the middle
	for i := range 100 {
		grow = append(grow, byte(i*53)&0x7F)
	}
	for range 100 {
		grow = append(grow, 0xA0)
	}
	for _, seed := range [][]byte{fifo, lifo, served, grow, {0x00, 0x3F, 0xFF, 0x20, 0x80, 0xC0}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var g Gapped[*Request]
		var model []*Request
		for n, b := range ops {
			switch {
			case b < 0x80:
				r, p := &Request{ID: uint64(n)}, len(model)
				if b < 0x40 {
					p = int(b) * (len(model) + 1) / 64
				}
				g.InsertAt(p, r)
				model = slices.Insert(model, p, r)
			case b == 0xFF:
				g.Reset()
				model = model[:0]
			case len(model) > 0:
				i := len(model) - 1
				if b < 0xC0 {
					i = int(b-0x80) * len(model) / 64
				}
				if got := g.RemoveAt(i); got != model[i] {
					t.Fatalf("step %d: RemoveAt(%d) = %v, want %v", n, i, got, model[i])
				}
				model = slices.Delete(model, i, i+1)
			}
			checkGapped(t, n, &g, model)
		}
	})
}
