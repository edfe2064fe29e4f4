// Package queue provides the repository's priority queues: an indexed
// binary min-heap over the items 0..n−1 keyed by float64 priorities, with
// decrease-key, for Dijkstra in the min-cost-flow solver; and the fast
// simulation engine's (internal/fast) RR completion queues, PairHeap for
// materialized runs and JobHeap for streams.
package queue

// IndexedMinHeap is a binary min-heap over item IDs 0..n−1. Each item may be
// present at most once; its key can be decreased while present.
// Construct with NewIndexedMinHeap, or call Reuse on a zero (or spent)
// value to size it without allocating when capacity already suffices.
type IndexedMinHeap struct {
	keys []float64 // keys[item]
	heap []int     // heap[i] = item at heap position i
	pos  []int     // pos[item] = heap position, -1 if absent
}

// NewIndexedMinHeap creates a heap over items 0..n−1, initially empty.
func NewIndexedMinHeap(n int) *IndexedMinHeap {
	h := new(IndexedMinHeap)
	h.Reuse(n)
	return h
}

// Reuse re-targets the heap at items 0..n−1 and empties it, reusing the
// backing arrays whenever capacity allows. It makes a zero or previously
// used value equivalent to NewIndexedMinHeap(n) without the allocations —
// the hook the fast engine's pooled workspaces rely on.
func (h *IndexedMinHeap) Reuse(n int) {
	if cap(h.keys) < n {
		h.keys = make([]float64, n)
		h.heap = make([]int, 0, n)
		h.pos = make([]int, n)
	}
	h.keys = h.keys[:n]
	h.heap = h.heap[:0]
	h.pos = h.pos[:n]
	for i := range h.pos {
		h.pos[i] = -1
	}
}

// Len returns the number of items currently in the heap.
func (h *IndexedMinHeap) Len() int { return len(h.heap) }

// Contains reports whether item is present.
func (h *IndexedMinHeap) Contains(item int) bool { return h.pos[item] >= 0 }

// Key returns the current key of item; valid only if Contains(item).
func (h *IndexedMinHeap) Key(item int) float64 { return h.keys[item] }

// Push inserts item with the given key. It panics if item is already
// present (use DecreaseKey) or out of range.
func (h *IndexedMinHeap) Push(item int, key float64) {
	if h.pos[item] >= 0 {
		panic("queue: Push of item already in heap")
	}
	h.keys[item] = key
	h.pos[item] = len(h.heap)
	h.heap = append(h.heap, item)
	h.up(len(h.heap) - 1)
}

// DecreaseKey lowers item's key. It panics if item is absent or the new key
// is larger than the current one.
func (h *IndexedMinHeap) DecreaseKey(item int, key float64) {
	i := h.pos[item]
	if i < 0 {
		panic("queue: DecreaseKey of absent item")
	}
	if key > h.keys[item] {
		panic("queue: DecreaseKey with larger key")
	}
	h.keys[item] = key
	h.up(i)
}

// PushOrDecrease inserts item, or lowers its key if already present and the
// new key is smaller. Returns true if the heap changed.
func (h *IndexedMinHeap) PushOrDecrease(item int, key float64) bool {
	if h.pos[item] < 0 {
		h.Push(item, key)
		return true
	}
	if key < h.keys[item] {
		h.DecreaseKey(item, key)
		return true
	}
	return false
}

// Min returns the item with the smallest key without removing it. It panics
// on an empty heap.
func (h *IndexedMinHeap) Min() (item int, key float64) {
	if len(h.heap) == 0 {
		panic("queue: Min of empty heap")
	}
	item = h.heap[0]
	return item, h.keys[item]
}

// PopMin removes and returns the item with the smallest key. It panics on an
// empty heap.
func (h *IndexedMinHeap) PopMin() (item int, key float64) {
	if len(h.heap) == 0 {
		panic("queue: PopMin of empty heap")
	}
	item = h.heap[0]
	key = h.keys[item]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[item] = -1
	if last > 0 {
		h.down(0)
	}
	return item, key
}

// Reset empties the heap without reallocating.
func (h *IndexedMinHeap) Reset() {
	for _, item := range h.heap {
		h.pos[item] = -1
	}
	h.heap = h.heap[:0]
}

func (h *IndexedMinHeap) less(i, j int) bool {
	return h.keys[h.heap[i]] < h.keys[h.heap[j]]
}

func (h *IndexedMinHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *IndexedMinHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *IndexedMinHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
