package core

import "sort"

// Lookahead is a clairvoyant comparator: it knows the full trace in
// advance and decides per access from each object's actual future
// yields — a Belady-flavored heuristic for the bypass-yield problem.
// Computing the true offline optimum is intractable (cache states are
// exponential), so Lookahead serves as a tighter empirical stand-in
// than static-optimal when estimating competitive ratios (the xcomp
// experiment): it adapts over time, which a static plan cannot.
//
// Decision rule at time t for object o (not cached):
//
//   - gain(o, t) = Σ future yields of o within the horizon
//   - load if gain − fetch > Σ over victims of their remaining gain,
//     choosing victims with the least remaining gain per byte.
//
// Cached objects are served; eviction only happens to admit a
// better-gaining object.
type Lookahead struct {
	capacity int64
	used     int64
	// future[o] holds the (sorted) times and yields of o's accesses.
	future map[ObjectID]*futureRef
	// horizon bounds how far ahead gains accumulate; 0 = to the end.
	horizon int64
	entries map[ObjectID]*laEntry
	evicted int64
}

type futureRef struct {
	times  []int64
	yields []int64
	// next indexes the first access with time > the current clock.
	next int
}

type laEntry struct {
	obj Object
}

// NewLookahead builds the clairvoyant policy from the full trace.
// horizon bounds the lookahead window in queries (0 = unbounded).
func NewLookahead(capacity int64, reqs []Request, horizon int64) *Lookahead {
	l := &Lookahead{
		capacity: capacity,
		horizon:  horizon,
		future:   make(map[ObjectID]*futureRef),
		entries:  make(map[ObjectID]*laEntry),
	}
	for _, r := range reqs {
		for _, a := range r.Accesses {
			f := l.future[a.Object]
			if f == nil {
				f = &futureRef{}
				l.future[a.Object] = f
			}
			f.times = append(f.times, r.Seq)
			f.yields = append(f.yields, a.Yield)
		}
	}
	return l
}

// Name implements Policy.
func (l *Lookahead) Name() string { return "lookahead" }

// Used implements Policy.
func (l *Lookahead) Used() int64 { return l.used }

// Capacity implements Policy.
func (l *Lookahead) Capacity() int64 { return l.capacity }

// Contains implements Policy.
func (l *Lookahead) Contains(obj Object) bool {
	_, ok := l.entries[obj.ID]
	return ok
}

// Evictions implements Policy.
func (l *Lookahead) Evictions() int64 { return l.evicted }

// gain sums an object's future yields within the horizon after time t.
func (l *Lookahead) gain(id ObjectID, t int64) int64 {
	f := l.future[id]
	if f == nil {
		return 0
	}
	// Advance the cursor past accesses at or before t.
	for f.next < len(f.times) && f.times[f.next] <= t {
		f.next++
	}
	var sum int64
	for i := f.next; i < len(f.times); i++ {
		if l.horizon > 0 && f.times[i] > t+l.horizon {
			break
		}
		sum += f.yields[i]
	}
	return sum
}

// Access implements Policy.
func (l *Lookahead) Access(t int64, obj Object, yield int64) Decision {
	if _, ok := l.entries[obj.ID]; ok {
		return Hit
	}
	if obj.Size > l.capacity {
		return Bypass
	}
	gain := l.gain(obj.ID, t)
	if gain <= obj.FetchCost {
		return Bypass // even serving every future access cannot repay the load
	}
	needed := obj.Size - (l.capacity - l.used)
	if needed > 0 {
		victims, victimGain, freed := l.selectVictims(t, needed)
		if freed < needed || victimGain >= gain-obj.FetchCost {
			return Bypass
		}
		for _, id := range victims {
			l.evict(id)
		}
	}
	l.entries[obj.ID] = &laEntry{obj: obj}
	l.used += obj.Size
	return Load
}

// selectVictims picks cached objects with the least remaining gain
// per byte until `needed` bytes are freed, returning their combined
// remaining gain.
func (l *Lookahead) selectVictims(t, needed int64) (victims []ObjectID, totalGain int64, freed int64) {
	type cand struct {
		id      ObjectID
		gain    int64
		size    int64
		density float64
	}
	cands := make([]cand, 0, len(l.entries))
	for id, e := range l.entries {
		g := l.gain(id, t)
		cands = append(cands, cand{id, g, e.obj.Size, float64(g) / float64(e.obj.Size)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].density != cands[j].density {
			return cands[i].density < cands[j].density
		}
		return cands[i].id < cands[j].id
	})
	for _, c := range cands {
		if freed >= needed {
			break
		}
		victims = append(victims, c.id)
		totalGain += c.gain
		freed += c.size
	}
	return victims, totalGain, freed
}

func (l *Lookahead) evict(id ObjectID) {
	e := l.entries[id]
	delete(l.entries, id)
	l.used -= e.obj.Size
	l.evicted++
}
