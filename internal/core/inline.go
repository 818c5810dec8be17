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
	onEvict   func(it *bheap.Item[Object])
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

// Evictions implements Policy.
func (c *inlineCache) Evictions() int64 { return c.evictions }

// Contents implements ContentLister.
func (c *inlineCache) Contents() []ObjectID { return heapContents(c.heap) }

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

// admit loads obj with the given utility after evicting to fit. It
// reports false (forced bypass) when the object exceeds the whole
// cache.
func (c *inlineCache) admit(obj Object, utility float64) bool {
	if obj.Size > c.cap {
		return false
	}
	for c.used+obj.Size > c.cap {
		it := c.heap.PopMin()
		c.items.del(it.Value)
		c.used -= it.Value.Size
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(it)
		}
	}
	*c.items.put(obj) = c.heap.Push(utility, obj)
	c.used += obj.Size
	return true
}

// GDS is Greedy-Dual-Size (Cao & Irani): on load or hit an object's
// priority is set to L + cost/size, where L is the inflation value,
// raised to the evicted priority on each eviction. The public-domain
// Squid proxy ships a variant of this policy; the paper uses it as
// the principal in-line comparator.
type GDS struct {
	inlineCache
	l float64
}

// NewGDS returns a Greedy-Dual-Size policy with the given capacity.
func NewGDS(capacity int64) *GDS {
	g := &GDS{inlineCache: newInlineCache("gds", capacity)}
	g.onEvict = func(it *bheap.Item[Object]) { g.l = it.Utility }
	return g
}

// Reset implements Policy.
func (g *GDS) Reset() {
	g.inlineCache.Reset()
	g.l = 0
}

func (g *GDS) priority(obj Object) float64 {
	return g.l + float64(obj.FetchCost)/float64(obj.Size)
}

// Access implements Policy.
func (g *GDS) Access(t int64, obj Object, yield int64) Decision {
	if g.reprioritize(obj, g.priority(obj)) {
		return Hit
	}
	if !g.admit(obj, g.priority(obj)) {
		return Bypass
	}
	return Load
}

// GDSP is popularity-aware Greedy-Dual-Size (Jin & Bestavros): the
// priority becomes L + freq·cost/size with a reference count that is
// retained for every object in the reference stream, cached or not.
type GDSP struct {
	inlineCache
	l    float64
	freq objTable[int64]
}

// NewGDSP returns a GDSP policy with the given capacity.
func NewGDSP(capacity int64) *GDSP {
	g := &GDSP{inlineCache: newInlineCache("gdsp", capacity)}
	g.onEvict = func(it *bheap.Item[Object]) { g.l = it.Utility }
	return g
}

// Reset implements Policy.
func (g *GDSP) Reset() {
	g.inlineCache.Reset()
	g.l = 0
	g.freq.reset()
}

func (g *GDSP) priority(obj Object, freq int64) float64 {
	return g.l + float64(freq)*float64(obj.FetchCost)/float64(obj.Size)
}

// Access implements Policy.
func (g *GDSP) Access(t int64, obj Object, yield int64) Decision {
	freq := g.freq.put(obj)
	*freq++
	if g.reprioritize(obj, g.priority(obj, *freq)) {
		return Hit
	}
	if !g.admit(obj, g.priority(obj, *freq)) {
		return Bypass
	}
	return Load
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
	if !l.admit(obj, float64(t)) {
		return Bypass
	}
	return Load
}

// LFU is least-frequently-used in-line caching: priority is the
// cache-lifetime reference count.
type LFU struct {
	inlineCache
	count objTable[int64]
}

// NewLFU returns an LFU policy with the given capacity.
func NewLFU(capacity int64) *LFU {
	return &LFU{inlineCache: newInlineCache("lfu", capacity)}
}

// Reset implements Policy.
func (l *LFU) Reset() {
	l.inlineCache.Reset()
	l.count.reset()
}

// Access implements Policy.
func (l *LFU) Access(t int64, obj Object, yield int64) Decision {
	count := l.count.put(obj)
	if p := l.items.find(obj); p != nil {
		*count++
		l.heap.Update(*p, float64(*count))
		return Hit
	}
	*count = 1
	if !l.admit(obj, 1) {
		return Bypass
	}
	return Load
}
