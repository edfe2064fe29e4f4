package fast

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// heapModel is the reference for slotHeap: the present items, kept sorted
// by cmpItems.
type heapModel struct{ items []slotItem }

func (m *heapModel) push(it slotItem) {
	i, _ := slices.BinarySearchFunc(m.items, it, cmpItems)
	m.items = slices.Insert(m.items, i, it)
}

func (m *heapModel) remove(slot int) {
	m.items = slices.DeleteFunc(m.items, func(it slotItem) bool { return it.slot == slot })
}

// cmpItems is the model's order, written apart from slotItem.less: key
// by cmp.Compare (−0 and +0 compare equal), then seq.
func cmpItems(a, b slotItem) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// checkHeap verifies h against the model: same size, same minimum (slot
// and key bits), the 4-ary heap order, and a pos index that names every
// present slot's position and −1 for every absent one.
func checkHeap(t *testing.T, step int, h *slotHeap, m *heapModel, slots int) {
	t.Helper()
	if h.Len() != len(m.items) {
		t.Fatalf("step %d: Len %d, model %d", step, h.Len(), len(m.items))
	}
	if h.Len() > 0 {
		want := m.items[0]
		if h.Min() != want.slot || math.Float64bits(h.MinKey()) != math.Float64bits(want.key) {
			t.Fatalf("step %d: Min (slot %d, key %v), model (slot %d, key %v)", step, h.Min(), h.MinKey(), want.slot, want.key)
		}
	}
	present := make([]bool, slots)
	for i, it := range h.items {
		if i > 0 && cmpItems(it, h.items[(i-1)/4]) < 0 {
			t.Fatalf("step %d: item %d %+v precedes its parent %+v", step, i, it, h.items[(i-1)/4])
		}
		if int(h.pos[it.slot]) != i {
			t.Fatalf("step %d: pos[%d] = %d, item sits at %d", step, it.slot, h.pos[it.slot], i)
		}
		present[it.slot] = true
	}
	for sl, p := range present {
		if !p && h.pos[sl] != -1 {
			t.Fatalf("step %d: absent slot %d has pos %d", step, sl, h.pos[sl])
		}
	}
}

// TestSlotHeapRandomized drives random Push, Pop, Remove and Min sequences
// over a few hundred slots and checks the heap against a sorted-slice model
// after every operation. Keys come from a small set with both zeros and
// both infinities, so key ties — and the seq tie-break — are common.
func TestSlotHeapRandomized(t *testing.T) {
	keys := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, 2, math.Inf(1)}
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		slots := 50 + rng.IntN(300)
		h := &slotHeap{}
		h.reuse()
		h.grow(slots)
		m := &heapModel{}
		seqs := rng.Perm(4 * slots) // unique tie-breaks, some negated below
		nextSeq := 0
		var absent, present []int
		for sl := range slots {
			absent = append(absent, sl)
		}
		take := func(list *[]int, i int) int {
			v := (*list)[i]
			(*list)[i] = (*list)[len(*list)-1]
			*list = (*list)[:len(*list)-1]
			return v
		}
		for step := 0; step < 20*slots; step++ {
			switch op := rng.IntN(10); {
			case len(absent) > 0 && (len(present) == 0 || op < 5):
				sl := take(&absent, rng.IntN(len(absent)))
				seq := seqs[nextSeq%len(seqs)] + nextSeq/len(seqs)*len(seqs)
				nextSeq++
				if rng.IntN(2) == 0 {
					seq = -seq - 1
				}
				it := slotItem{key: keys[rng.IntN(len(keys))], seq: seq, slot: sl}
				h.Push(it.key, it.seq, it.slot)
				m.push(it)
				present = append(present, sl)
			case op < 8:
				want := m.items[0].slot
				if got := h.Pop(); got != want {
					t.Fatalf("seed %d step %d: Pop %d, model %d", seed, step, got, want)
				}
				m.remove(want)
				present = slices.DeleteFunc(present, func(sl int) bool { return sl == want })
				absent = append(absent, want)
			default:
				sl := take(&present, rng.IntN(len(present)))
				h.Remove(sl)
				m.remove(sl)
				absent = append(absent, sl)
			}
			checkHeap(t, step, h, m, slots)
		}
	}
}

// TestSlotHeapMisuse pins the guards: pushing a present slot or removing
// an absent one panics instead of corrupting the position index.
func TestSlotHeapMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	h := &slotHeap{}
	h.grow(2)
	h.Push(1, 0, 0)
	mustPanic("Push of a present slot", func() { h.Push(2, 1, 0) })
	mustPanic("Remove of an absent slot", func() { h.Remove(1) })
}

// TestSlotHeapReuseAllocs checks that a heap refilled after reuse, within
// the capacity it already reached, allocates nothing.
func TestSlotHeapReuseAllocs(t *testing.T) {
	const slots = 300
	h := &slotHeap{}
	fill := func() {
		h.reuse()
		h.grow(slots)
		for sl := range slots {
			h.Push(float64(sl%7), slots-sl, sl)
		}
		for sl := 0; sl < slots; sl += 3 {
			h.Remove(sl)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
	fill()
	if a := testing.AllocsPerRun(50, fill); a != 0 {
		t.Fatalf("refill after reuse: %v allocs/run, want 0", a)
	}
}
