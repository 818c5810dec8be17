// Package bheap provides a mutable binary min-heap of items ordered by a
// float64 utility.
//
// It is the ordering half of the cache data structure described in
// Section 6 of the paper: a binary heap of database objects ordered by
// utility value. The paper's "additional hash table" that resolves hits
// and misses is the caller's: Push returns the item, which the caller
// keeps with the object's other state and hands back to Update and
// Remove. Insertions are O(log n), eviction of the minimum-utility item
// is O(log n), and utility updates are O(log n).
package bheap

// Item is an element stored in the heap. Items are created by Push and
// owned by the heap until removed.
type Item[T any] struct {
	// Utility is the heap ordering key; the minimum-utility item is
	// at the root.
	Utility float64
	// Value is the payload carried with the item.
	Value T

	index int // position in the heap slice; -1 once removed
}

// Heap is a binary min-heap over Items. The zero value is an empty heap
// ready for use.
type Heap[T any] struct {
	items []*Item[T]
}

// New returns an empty heap with capacity hint n.
func New[T any](n int) *Heap[T] {
	return &Heap[T]{items: make([]*Item[T], 0, n)}
}

// Len reports the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts a new item and returns it.
func (h *Heap[T]) Push(utility float64, value T) *Item[T] {
	it := &Item[T]{Utility: utility, Value: value, index: len(h.items)}
	h.items = append(h.items, it)
	h.up(it.index)
	return it
}

// PeekMin returns the minimum-utility item without removing it, or nil
// if the heap is empty.
func (h *Heap[T]) PeekMin() *Item[T] {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

// PopMin removes and returns the minimum-utility item, or nil if the
// heap is empty.
func (h *Heap[T]) PopMin() *Item[T] {
	if len(h.items) == 0 {
		return nil
	}
	return h.remove(0)
}

// Remove removes an item of this heap. It reports false for an item
// already removed.
func (h *Heap[T]) Remove(it *Item[T]) bool {
	if !h.holds(it) {
		return false
	}
	h.remove(it.index)
	return true
}

// Update changes the utility of an item of this heap and restores heap
// order. It reports false, and changes nothing, for an item already
// removed.
func (h *Heap[T]) Update(it *Item[T], utility float64) bool {
	if !h.holds(it) {
		return false
	}
	old := it.Utility
	it.Utility = utility
	switch {
	case utility < old:
		h.up(it.index)
	case utility > old:
		h.down(it.index)
	}
	return true
}

// holds reports whether it is in the heap.
func (h *Heap[T]) holds(it *Item[T]) bool {
	return it.index >= 0 && it.index < len(h.items) && h.items[it.index] == it
}

// Items returns a snapshot of all items in heap (not sorted) order.
// Mutating the returned slice does not affect the heap, but the Items
// themselves are shared. Pushing them in this order into an empty heap
// rebuilds this one exactly.
func (h *Heap[T]) Items() []*Item[T] {
	out := make([]*Item[T], len(h.items))
	copy(out, h.items)
	return out
}

func (h *Heap[T]) remove(i int) *Item[T] {
	it := h.items[i]
	last := len(h.items) - 1
	h.swap(i, last)
	h.items[last] = nil
	h.items = h.items[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	it.index = -1
	return it
}

func (h *Heap[T]) less(i, j int) bool {
	return h.items[i].Utility < h.items[j].Utility
}

func (h *Heap[T]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
