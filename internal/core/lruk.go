package core

// LRUK is the LRU-K replacement policy of O'Neil, O'Neil & Weikum
// (SIGMOD '93), cited by the paper for database disk buffering: the
// eviction victim is the object whose K-th most recent reference is
// oldest, which discriminates frequently from infrequently referenced
// objects better than plain LRU. Reference history is retained for
// every object in the stream, cached or not, as the algorithm
// specifies. Like the paper's other comparators it is in-line: every
// miss loads.
type LRUK struct {
	inlineCache
	k int
	// hist is each object's reference history, most recent first, at
	// most k entries. Every slice has capacity k, so a reference shifts
	// the history in place.
	hist objTable[[]int64]
}

// NewLRUK returns an LRU-K policy. k < 2 degrades to classic LRU
// semantics with history.
func NewLRUK(capacity int64, k int) *LRUK {
	if k < 1 {
		k = 1
	}
	return &LRUK{inlineCache: newInlineCache("lru-k", capacity), k: k}
}

// Reset implements Policy.
func (l *LRUK) Reset() {
	l.inlineCache.Reset()
	l.hist.reset()
}

// priority orders eviction by reference history h: objects with a full
// K-history rank by their K-th most recent reference; objects with
// fewer references rank below all of them (infinite backward
// K-distance), ordered by recency among themselves.
func (l *LRUK) priority(h []int64) float64 {
	if len(h) >= l.k {
		return float64(h[l.k-1])
	}
	if len(h) == 0 {
		return -1e18
	}
	return float64(h[0]) - 1e12
}

// Access implements Policy.
func (l *LRUK) Access(t int64, obj Object, yield int64) Decision {
	hp := l.hist.put(obj)
	if len(*hp) < l.k {
		if *hp == nil {
			*hp = make([]int64, 0, l.k)
		}
		*hp = (*hp)[:len(*hp)+1]
	}
	h := *hp
	copy(h[1:], h)
	h[0] = t

	prio := l.priority(h)
	if l.reprioritize(obj, prio) {
		return Hit
	}
	if !l.admit(obj, prio) {
		return Bypass
	}
	return Load
}
