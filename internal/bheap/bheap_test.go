package bheap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyHeap(t *testing.T) {
	var h Heap[string]
	if h.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", h.Len())
	}
	if h.PeekMin() != nil {
		t.Fatal("PeekMin on empty heap should be nil")
	}
	if h.PopMin() != nil {
		t.Fatal("PopMin on empty heap should be nil")
	}
	gone := New[string](1).Push(1, "x")
	if h.Remove(gone) {
		t.Fatal("Remove of another heap's item should report false")
	}
	if h.Update(gone, 2) {
		t.Fatal("Update of another heap's item should report false")
	}
}

func TestPushPopOrder(t *testing.T) {
	h := New[string](8)
	utils := []float64{5, 1, 3, 2, 4, 0, 6}
	for i, u := range utils {
		h.Push(u, string(rune('a'+i)))
	}
	want := append([]float64(nil), utils...)
	sort.Float64s(want)
	for i, w := range want {
		it := h.PopMin()
		if it == nil {
			t.Fatalf("PopMin #%d returned nil", i)
		}
		if it.Utility != w {
			t.Fatalf("PopMin #%d utility = %v, want %v", i, it.Utility, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len after draining = %d, want 0", h.Len())
	}
}

// TestPushReturnsItem: the item Push returns carries its utility and
// value, and is the one the heap later hands out.
func TestPushReturnsItem(t *testing.T) {
	h := New[int](2)
	it := h.Push(1, 42)
	if it.Utility != 1 || it.Value != 42 {
		t.Fatalf("Push returned %+v, want utility 1, value 42", it)
	}
	h.Push(2, 7)
	if got := h.PopMin(); got != it {
		t.Fatalf("PopMin = %+v, want the item Push returned", got)
	}
	if h.Update(it, 0) || h.Remove(it) {
		t.Fatal("a popped item is no longer the heap's")
	}
}

func TestUpdateMovesItem(t *testing.T) {
	h := New[string](4)
	a := h.Push(1, "a")
	h.Push(2, "b")
	c := h.Push(3, "c")
	if !h.Update(a, 10) {
		t.Fatal("Update should report true for an item in the heap")
	}
	if got := h.PeekMin().Value; got != "b" {
		t.Fatalf("PeekMin after update = %q, want b", got)
	}
	h.Update(c, 0)
	if got := h.PeekMin().Value; got != "c" {
		t.Fatalf("PeekMin after second update = %q, want c", got)
	}
}

func TestRemoveMiddle(t *testing.T) {
	h := New[string](8)
	var first *Item[string]
	for i, u := range []float64{4, 2, 6, 1, 3, 5} {
		it := h.Push(u, string(rune('a'+i)))
		if i == 0 {
			first = it
		}
	}
	if !h.Remove(first) || first.Utility != 4 {
		t.Fatalf("Remove of %+v failed, want utility 4 removed", first)
	}
	if h.Remove(first) {
		t.Fatal("a removed item was removed again")
	}
	want := []float64{1, 2, 3, 5, 6}
	for i, w := range want {
		if got := h.PopMin().Utility; got != w {
			t.Fatalf("PopMin #%d = %v, want %v", i, got, w)
		}
	}
}

func TestRemoveLast(t *testing.T) {
	h := New[string](2)
	it := h.Push(1, "a")
	if !h.Remove(it) || it.Value != "a" {
		t.Fatalf("Remove of %+v failed", it)
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
}

func TestZeroValueUsable(t *testing.T) {
	var h Heap[string]
	h.Push(1, "a")
	if h.PopMin().Value != "a" {
		t.Fatal("PopMin should return pushed item")
	}
}

// TestItemsRebuildTheHeap: pushing Items' order into an empty heap
// gives the same order, equal utilities included, which is how a
// restored cache evicts as the snapshotted one would have.
func TestItemsRebuildTheHeap(t *testing.T) {
	h := New[int](8)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		it := h.Push(float64(r.Intn(5)), i)
		if i%3 == 0 {
			h.Update(it, float64(r.Intn(5)))
		}
	}
	twin := New[int](8)
	for _, it := range h.Items() {
		twin.Push(it.Utility, it.Value)
	}
	for h.Len() > 0 {
		if a, b := h.PopMin(), twin.PopMin(); a.Value != b.Value {
			t.Fatalf("the rebuilt heap pops %d where the original pops %d", b.Value, a.Value)
		}
	}
}

// heapInvariant checks the min-heap property and index consistency.
func heapInvariant[T any](h *Heap[T]) bool {
	for i, it := range h.items {
		if it.index != i {
			return false
		}
		l, r := 2*i+1, 2*i+2
		if l < len(h.items) && h.items[l].Utility < it.Utility {
			return false
		}
		if r < len(h.items) && h.items[r].Utility < it.Utility {
			return false
		}
	}
	return true
}

func TestQuickRandomOps(t *testing.T) {
	// Property: after an arbitrary sequence of push/pop/update/remove
	// operations the heap invariant holds and PopMin drains in sorted
	// order.
	f := func(seed int64, opsRaw []byte) bool {
		r := rand.New(rand.NewSource(seed))
		h := New[int](4)
		var live []*Item[int]
		for i, op := range opsRaw {
			switch op % 4 {
			case 0: // push
				live = append(live, h.Push(r.Float64(), i))
			case 1: // pop
				if it := h.PopMin(); it != nil {
					for k := range live {
						if live[k] == it {
							live = append(live[:k], live[k+1:]...)
							break
						}
					}
				}
			case 2: // update a random live item
				if len(live) > 0 && !h.Update(live[r.Intn(len(live))], r.Float64()) {
					return false
				}
			case 3: // remove a random live item
				if len(live) > 0 {
					k := r.Intn(len(live))
					if !h.Remove(live[k]) {
						return false
					}
					live = append(live[:k], live[k+1:]...)
				}
			}
			if !heapInvariant(h) || h.Len() != len(live) {
				return false
			}
		}
		prev := -1.0
		for h.Len() > 0 {
			it := h.PopMin()
			if it.Utility < prev {
				return false
			}
			prev = it.Utility
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		h := New[int](1024)
		for k := 0; k < 1024; k++ {
			h.Push(r.Float64(), k)
		}
		for h.Len() > 0 {
			h.PopMin()
		}
	}
}

func BenchmarkUpdate(b *testing.B) {
	h := New[int](1024)
	r := rand.New(rand.NewSource(1))
	items := make([]*Item[int], 1024)
	for i := range items {
		items[i] = h.Push(r.Float64(), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Update(items[i%len(items)], r.Float64())
	}
}
