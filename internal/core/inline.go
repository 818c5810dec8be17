package core

import "bypassyield/internal/bheap"

// This file implements the paper's in-line comparators: classic
// object-model caches with no bypass option. Every miss loads the
// object (unless it simply cannot fit), exactly the behaviour the
// paper blames for GDS's poor showing on scientific workloads: "GDS
// performs poorly because it caches all requests, loading columns
// (resp. tables) into the cache and generating query results in the
// cache."

// inlineCache is the shared machinery of the in-line policies: a
// utility-keyed min-heap cache where a miss always loads, evicting
// minimum-utility objects to make space.
type inlineCache struct {
	name      string
	cap       int64
	used      int64
	heap      *bheap.Heap[Object]
	items     objTable[*bheap.Item[Object]] // each cached object's place in heap
	evictions int64
}

func newInlineCache(name string, capacity int64) inlineCache {
	return inlineCache{name: name, cap: capacity, heap: bheap.New[Object](64)}
}

// Name implements Policy.
func (c *inlineCache) Name() string { return c.name }

// Used implements Policy.
func (c *inlineCache) Used() int64 { return c.used }

// Capacity implements Policy.
func (c *inlineCache) Capacity() int64 { return c.cap }

// Contains implements Policy.
func (c *inlineCache) Contains(id ObjectID) bool { return c.items.findID(id) != nil }

func (c *inlineCache) holds(obj Object) bool { return c.items.find(obj) != nil }

// Evictions implements Policy.
func (c *inlineCache) Evictions() int64 { return c.evictions }

// Contents implements ContentLister.
func (c *inlineCache) Contents() []ObjectID {
	items := c.heap.Items()
	ids := make([]ObjectID, len(items))
	for i, it := range items {
		ids[i] = it.Value.ID
	}
	return ids
}

// Reset implements Policy (concrete policies with extra state wrap it).
func (c *inlineCache) Reset() {
	c.used = 0
	c.evictions = 0
	c.heap = bheap.New[Object](64)
	c.items.reset()
}

// reprioritize sets a cached object's priority: it reports false, and
// changes nothing, for an object not cached.
func (c *inlineCache) reprioritize(obj Object, utility float64) bool {
	p := c.items.find(obj)
	if p == nil {
		return false
	}
	c.heap.Update(*p, utility)
	return true
}

// makeRoom evicts minimum-utility objects until obj fits and returns
// the last one evicted (nil for none), whose utility is the greatest
// evicted. It reports false, evicting nothing, when obj exceeds the
// whole cache.
func (c *inlineCache) makeRoom(obj Object) (last *bheap.Item[Object], ok bool) {
	if obj.Size > c.cap {
		return nil, false
	}
	for c.used+obj.Size > c.cap {
		last = c.heap.PopMin()
		c.items.del(last.Value)
		c.used -= last.Value.Size
		c.evictions++
	}
	return last, true
}

// insert caches obj, which makeRoom has made room for, at the given
// utility.
func (c *inlineCache) insert(obj Object, utility float64) {
	*c.items.put(obj) = c.heap.Push(utility, obj)
	c.used += obj.Size
}

// greedyDual is GreedyDual-Size (Cao & Irani), the one implementation
// behind GDS and Landlord: an object's priority is L + cost/size, where
// the inflation value L rises to each evicted priority, and a loaded
// object is inserted after the evictions its load needs, at the
// raised L.
type greedyDual struct {
	inlineCache
	l float64
}

// Reset implements Policy.
func (g *greedyDual) Reset() {
	g.inlineCache.Reset()
	g.l = 0
}

// access refreshes a cached obj's priority (Hit) or loads obj after
// evicting to fit (Load); an object larger than the cache is bypassed.
func (g *greedyDual) access(obj Object) Decision {
	value := float64(obj.FetchCost) / float64(obj.Size)
	if g.reprioritize(obj, g.l+value) {
		return Hit
	}
	last, ok := g.makeRoom(obj)
	if !ok {
		return Bypass
	}
	if last != nil {
		g.l = last.Utility
	}
	g.insert(obj, g.l+value)
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
	return &GDS{greedyDual{inlineCache: newInlineCache("gds", capacity)}}
}

// Access implements Policy.
func (g *GDS) Access(t int64, obj Object, yield int64) Decision {
	return g.access(obj)
}

// LRU is least-recently-used in-line caching over variable-size
// objects: priority is the last access time.
type LRU struct {
	inlineCache
}

// NewLRU returns an LRU policy with the given capacity.
func NewLRU(capacity int64) *LRU {
	return &LRU{newInlineCache("lru", capacity)}
}

// Access implements Policy.
func (l *LRU) Access(t int64, obj Object, yield int64) Decision {
	if l.reprioritize(obj, float64(t)) {
		return Hit
	}
	if _, ok := l.makeRoom(obj); !ok {
		return Bypass
	}
	l.insert(obj, float64(t))
	return Load
}
