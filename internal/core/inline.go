package core

import "bypassyield/internal/bheap"

// This file implements the paper's in-line comparator: a classic
// object-model cache with no bypass option. Every miss loads the
// object (unless it simply cannot fit), exactly the behaviour the
// paper blames for GDS's poor showing on scientific workloads: "GDS
// performs poorly because it caches all requests, loading columns
// (resp. tables) into the cache and generating query results in the
// cache."

// greedyDual is GreedyDual-Size (Cao & Irani), the one implementation
// behind GDS and Landlord: a min-heap of cached objects keyed by
// priority L + cost/size, where the inflation value L rises to each
// evicted priority, and a loaded object is inserted after the
// evictions its load needs, at the raised L.
type greedyDual struct {
	name      string
	cap       int64
	used      int64
	l         float64
	heap      *bheap.Heap[Object]
	items     objTable[*bheap.Item[Object]] // each cached object's place in heap
	evictions int64
}

func newGreedyDual(name string, capacity int64) greedyDual {
	return greedyDual{name: name, cap: capacity, heap: bheap.New[Object](64)}
}

// Name implements Policy.
func (g *greedyDual) Name() string { return g.name }

// Used implements Policy.
func (g *greedyDual) Used() int64 { return g.used }

// Capacity implements Policy.
func (g *greedyDual) Capacity() int64 { return g.cap }

// Contains implements Policy.
func (g *greedyDual) Contains(id ObjectID) bool { return g.items.findID(id) != nil }

func (g *greedyDual) holds(obj Object) bool { return g.items.find(obj) != nil }

// Evictions implements Policy.
func (g *greedyDual) Evictions() int64 { return g.evictions }

// Contents implements ContentLister.
func (g *greedyDual) Contents() []ObjectID {
	items := g.heap.Items()
	ids := make([]ObjectID, len(items))
	for i, it := range items {
		ids[i] = it.Value.ID
	}
	return ids
}

// Reset implements Policy.
func (g *greedyDual) Reset() {
	g.used = 0
	g.l = 0
	g.evictions = 0
	g.heap = bheap.New[Object](64)
	g.items.reset()
}

// access refreshes a cached obj's priority (Hit) or loads obj after
// evicting minimum-priority objects to fit (Load); an object larger
// than the cache is bypassed, evicting nothing.
func (g *greedyDual) access(obj Object) Decision {
	value := float64(obj.FetchCost) / float64(obj.Size)
	if p := g.items.find(obj); p != nil {
		g.heap.Update(*p, g.l+value)
		return Hit
	}
	if obj.Size > g.cap {
		return Bypass
	}
	for g.used+obj.Size > g.cap {
		victim := g.heap.PopMin()
		g.items.del(victim.Value)
		g.used -= victim.Value.Size
		g.evictions++
		g.l = victim.Utility
	}
	*g.items.put(obj) = g.heap.Push(g.l+value, obj)
	g.used += obj.Size
	return Load
}

// GDS is Greedy-Dual-Size (Cao & Irani): on load or hit an object's
// priority is set to L + cost/size, where L is the inflation value,
// raised to the evicted priority on each eviction. The public-domain
// Squid proxy ships a variant of this policy; the paper uses it as
// the principal in-line comparator.
type GDS struct {
	greedyDual
}

// NewGDS returns a Greedy-Dual-Size policy with the given capacity.
func NewGDS(capacity int64) *GDS {
	return &GDS{newGreedyDual("gds", capacity)}
}

// Access implements Policy.
func (g *GDS) Access(t int64, obj Object, yield int64) Decision {
	return g.access(obj)
}
