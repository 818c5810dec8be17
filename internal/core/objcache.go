package core

import "sort"

// ObjAction is the outcome of presenting a whole-object request to a
// bypass-object cacher.
type ObjAction uint8

const (
	// ObjHit: the object was already cached.
	ObjHit ObjAction = iota
	// ObjLoad: the object was fetched into the cache.
	ObjLoad
	// ObjBypass: the request was served at the server; the cache is
	// unchanged.
	ObjBypass
)

// ObjectCacher is an algorithm for the bypass-object caching problem
// of Section 5.1: a request sequence of whole objects with varying
// sizes and fetch costs, where a miss may either fetch the object
// (possibly evicting others) or bypass to the server, both at cost
// f_i. OnlineBY and SpaceEffBY reduce bypass-yield caching to this
// problem and maintain their caches exactly as the subroutine (the
// paper's A_obj) does.
type ObjectCacher interface {
	// Name identifies the subroutine in reports.
	Name() string
	// Request presents a whole-object request and returns the action
	// taken.
	Request(obj Object) ObjAction
	// Contains reports whether the object is cached.
	Contains(id ObjectID) bool
	// holds is Contains on the access path: the object's state is found
	// by its slot, without hashing its id.
	holds(obj Object) bool
	// Used reports bytes currently cached.
	Used() int64
	// Capacity reports the cache size in bytes.
	Capacity() int64
	// Evictions reports cumulative evictions.
	Evictions() int64
	// Reset restores the initial empty state.
	Reset()
}

// Landlord is Young's k-competitive cost-aware caching algorithm,
// used as the default deterministic A_obj (the abstract's
// "k-competitive deterministic algorithm"). Each cached object holds
// credit, initially its fetch cost; to make space the algorithm
// decreases every object's credit by δ·size where δ is the minimum
// credit-per-byte, and evicts objects whose credit reaches zero. A hit
// refreshes the object's credit to its fetch cost.
//
// With that full refresh Landlord is GreedyDual-Size, and it runs on
// GDS's code: credits are stored as L + credit-per-byte in a min-heap
// and the inflation L rises on eviction, so the uniform decrement is
// O(1) and each operation is O(log n).
type Landlord struct {
	greedyDual
}

// NewLandlord returns a Landlord cacher with the given capacity.
func NewLandlord(capacity int64) *Landlord {
	return &Landlord{newGreedyDual("landlord", capacity)}
}

// Credit returns the effective remaining credit of a cached object
// (exposed for invariant tests); ok is false if the object is absent.
func (l *Landlord) Credit(id ObjectID) (credit float64, ok bool) {
	p := l.items.findID(id)
	if p == nil {
		return 0, false
	}
	return ((*p).Utility - l.l) * float64((*p).Value.Size), true
}

// Request implements ObjectCacher.
func (l *Landlord) Request(obj Object) ObjAction {
	switch l.access(obj) {
	case Hit:
		return ObjHit
	case Load:
		return ObjLoad
	}
	return ObjBypass
}

// SizeClassMarking is an adaptation of Irani's O(lg²k)-competitive
// optional multi-size paging scheme: objects are rounded to
// power-of-two size classes and a marking algorithm runs over the
// cache. A hit marks the object. On a miss the algorithm evicts
// unmarked objects (smallest size class first) to make space; if the
// marked objects alone exceed the required residual space the request
// is bypassed, and once the bypassed fetch volume within the current
// phase exceeds the cache size a new phase begins (all marks are
// cleared).
//
// Irani's exact optional-paging construction appears in a technical
// report that is not available; this adaptation preserves its
// structural ingredients (size classes, marking phases, the option to
// bypass rather than thrash) and is offered as an alternative A_obj
// for ablation. No competitive bound is claimed for it.
type SizeClassMarking struct {
	cap         int64
	used        int64
	entries     objTable[*scmEntry]
	phaseBypass int64
	evictions   int64
}

type scmEntry struct {
	obj    Object
	marked bool
	class  int
}

// NewSizeClassMarking returns a size-class marking cacher with the
// given capacity.
func NewSizeClassMarking(capacity int64) *SizeClassMarking {
	return &SizeClassMarking{cap: capacity}
}

// Name implements ObjectCacher.
func (m *SizeClassMarking) Name() string { return "size-class-marking" }

// Capacity implements ObjectCacher.
func (m *SizeClassMarking) Capacity() int64 { return m.cap }

// Used implements ObjectCacher.
func (m *SizeClassMarking) Used() int64 { return m.used }

// Evictions implements ObjectCacher.
func (m *SizeClassMarking) Evictions() int64 { return m.evictions }

// Contains implements ObjectCacher.
func (m *SizeClassMarking) Contains(id ObjectID) bool { return m.entries.findID(id) != nil }

func (m *SizeClassMarking) holds(obj Object) bool { return m.entries.find(obj) != nil }

// Reset implements ObjectCacher.
func (m *SizeClassMarking) Reset() {
	m.used = 0
	m.phaseBypass = 0
	m.evictions = 0
	m.entries.reset()
}

func sizeClass(size int64) int {
	c := 0
	for s := int64(1); s < size; s <<= 1 {
		c++
	}
	return c
}

// Request implements ObjectCacher.
func (m *SizeClassMarking) Request(obj Object) ObjAction {
	if p := m.entries.find(obj); p != nil {
		(*p).marked = true
		return ObjHit
	}
	if obj.Size > m.cap {
		return ObjBypass
	}
	needed := obj.Size - (m.cap - m.used)
	if needed > 0 {
		victims, freed := m.unmarkedVictims(needed)
		if freed < needed {
			// Marked objects alone exceed the residual space: bypass,
			// and advance the phase once enough fetch volume has been
			// refused.
			m.phaseBypass += obj.FetchCost
			if m.phaseBypass >= m.cap {
				m.newPhase()
			}
			return ObjBypass
		}
		for _, e := range victims {
			m.evict(e)
		}
	}
	*m.entries.put(obj) = &scmEntry{obj: obj, marked: true, class: sizeClass(obj.Size)}
	m.used += obj.Size
	return ObjLoad
}

// unmarkedVictims selects unmarked entries, smallest size class first,
// until `needed` bytes are freed.
func (m *SizeClassMarking) unmarkedVictims(needed int64) (victims []*scmEntry, freed int64) {
	var cands []*scmEntry
	m.entries.each(func(_ ObjectID, e **scmEntry) {
		if !(*e).marked {
			cands = append(cands, *e)
		}
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].class != cands[j].class {
			return cands[i].class < cands[j].class
		}
		return cands[i].obj.ID < cands[j].obj.ID
	})
	for _, c := range cands {
		if freed >= needed {
			break
		}
		victims = append(victims, c)
		freed += c.obj.Size
	}
	return victims, freed
}

func (m *SizeClassMarking) newPhase() {
	m.phaseBypass = 0
	m.entries.each(func(_ ObjectID, e **scmEntry) { (*e).marked = false })
}

func (m *SizeClassMarking) evict(e *scmEntry) {
	m.entries.del(e.obj)
	m.used -= e.obj.Size
	m.evictions++
}
