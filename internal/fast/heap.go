package fast

// slotHeap is the top-m engine's heap: a 4-ary min-heap over scratch slot
// ids whose order key travels inline with each item, ordered by (key, seq).
// seq is an arrival sequence number (or its negation), unique per alive
// job, so the order is strict and total: the pop sequence depends only on
// the contents, never on the arity or the sift path. A key never changes
// while its item is in the heap — callers remove an item before the slot
// state it was keyed on moves — so comparisons read two flat words per
// item instead of dispatching into the slot columns.
//
// pos maps a slot to its item index (−1 when absent) so a preemption can
// pull a job out of the middle of the running set in O(log alive). Sifts
// move a hole rather than swapping pairs: the moving item is written once,
// at its final index, and every item it passes has its pos written once.
// Slots appear dynamically (allocSlot calls grow), so capacity tracks the
// peak alive set, not the stream length.
type slotHeap struct {
	items []slotItem
	pos   []int32
}

type slotItem struct {
	key  float64
	seq  int
	slot int
}

func (a slotItem) less(b slotItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// reuse empties the heap; grow extends position tracking to cover slots
// 0..n−1, new slots absent. Backing arrays are kept, so steady-state runs
// allocate nothing.
func (h *slotHeap) reuse() {
	h.items = h.items[:0]
	h.pos = h.pos[:0]
}

func (h *slotHeap) grow(n int) {
	for len(h.pos) < n {
		h.pos = append(h.pos, -1)
	}
}

// Len returns the number of slots currently in the heap.
func (h *slotHeap) Len() int { return len(h.items) }

// Min returns the least slot and MinKey its key; the heap must be
// non-empty.
func (h *slotHeap) Min() int { return h.items[0].slot }

func (h *slotHeap) MinKey() float64 { return h.items[0].key }

// Push inserts slot under (key, seq); it must not already be present.
func (h *slotHeap) Push(key float64, seq, slot int) {
	if h.pos[slot] >= 0 {
		panic("fast: Push of slot already in heap")
	}
	h.items = append(h.items, slotItem{key: key, seq: seq, slot: slot})
	h.up(len(h.items)-1, h.items[len(h.items)-1])
}

// Pop removes and returns the least slot; the heap must be non-empty.
func (h *slotHeap) Pop() int {
	sl := h.items[0].slot
	h.removeAt(0)
	return sl
}

// Remove deletes slot from anywhere in the heap; it must be present.
func (h *slotHeap) Remove(slot int) {
	i := h.pos[slot]
	if i < 0 {
		panic("fast: Remove of absent slot")
	}
	h.removeAt(int(i))
}

// removeAt fills the hole at i with the last item and sifts it whichever
// way the heap order needs.
func (h *slotHeap) removeAt(i int) {
	last := len(h.items) - 1
	h.pos[h.items[i].slot] = -1
	cur := h.items[last]
	h.items = h.items[:last]
	if i == last {
		return
	}
	if i > 0 && cur.less(h.items[(i-1)/4]) {
		h.up(i, cur)
	} else {
		h.down(i, cur)
	}
}

// up places cur at the hole i or above it.
func (h *slotHeap) up(i int, cur slotItem) {
	items := h.items
	for i > 0 {
		p := (i - 1) / 4
		if !cur.less(items[p]) {
			break
		}
		items[i] = items[p]
		h.pos[items[i].slot] = int32(i)
		i = p
	}
	items[i] = cur
	h.pos[cur.slot] = int32(i)
}

// down places cur at the hole i or below it.
func (h *slotHeap) down(i int, cur slotItem) {
	items := h.items
	n := len(items)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		least := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if items[k].less(items[least]) {
				least = k
			}
		}
		if !items[least].less(cur) {
			break
		}
		items[i] = items[least]
		h.pos[items[i].slot] = int32(i)
		i = least
	}
	items[i] = cur
	h.pos[cur.slot] = int32(i)
}
