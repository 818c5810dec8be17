package core

// RateProfileConfig parameterizes the Rate-Profile policy.
type RateProfileConfig struct {
	// Capacity is the cache size in bytes.
	Capacity int64
	// Episodes configures episode division and aging for out-of-cache
	// profiles; the zero value selects the paper's parameters
	// (c = 0.5, k = 1000).
	Episodes EpisodeConfig
	// MaxProfiles bounds out-of-cache metadata (pruning); zero means
	// a generous default.
	MaxProfiles int
}

// RateProfile is the workload-driven bypass-yield algorithm of
// Section 4. Cached objects carry a rate profile (RP, eq. 3) — the
// measured rate of network savings over their cache lifetime — and
// uncached objects carry an episode-based load-adjusted rate (LAR,
// eqs. 4–6) estimating the savings rate they would achieve if loaded.
// On a miss the candidate's LAR is compared against the RPs of the
// would-be victims: the object is loaded only if every victim
// currently saves at a lower rate than the candidate is expected to;
// otherwise the access is bypassed. Load cost is charged to LAR (an
// investment) but not to RP (a sunk cost), which keeps evictions
// conservative, as the paper requires.
type RateProfile struct {
	cfg       RateProfileConfig
	used      int64
	entries   objTable[*rpEntry]
	profiles  *profileTable
	evictions int64
	last      Explain

	// heap holds the same entries as the table, each at its idx: what
	// selectVictims walks and Contents lists. While heaped it is a
	// min-heap in eviction order (victimCand.before) of their RPs at tick
	// heapT, built by the first miss of a tick that needs victims and kept
	// in order by that tick's hits, loads and evictions, so every such
	// miss of one query takes its victims from it without computing an RP.
	// An access at another tick, Reset and RestoreState drop the order;
	// the next miss that needs victims builds it again.
	heap   []victimCand
	heapT  int64
	heaped bool
	builds int // heaps built, for tests

	// Buffers selectVictims reuses from miss to miss.
	cands   []victimCand
	victims []*rpEntry
}

type rpEntry struct {
	obj      Object
	loadTime int64
	sumYield int64
	idx      int // position in RateProfile.heap
}

// rp evaluates eq. 3 at time t. As with LARP, the first access after
// load uses a one-query interval.
func (e *rpEntry) rp(t int64) float64 {
	dt := t - e.loadTime
	if dt < 1 {
		dt = 1
	}
	return float64(e.sumYield) / (float64(dt) * float64(e.obj.Size))
}

// NewRateProfile returns a Rate-Profile policy with the given
// configuration.
func NewRateProfile(cfg RateProfileConfig) *RateProfile {
	cfg.Episodes.fill()
	return &RateProfile{
		cfg:      cfg,
		profiles: newProfileTable(cfg.Episodes, cfg.MaxProfiles),
	}
}

// Name implements Policy.
func (r *RateProfile) Name() string { return "rate-profile" }

// Used implements Policy.
func (r *RateProfile) Used() int64 { return r.used }

// Capacity implements Policy.
func (r *RateProfile) Capacity() int64 { return r.cfg.Capacity }

// Contains implements Policy.
func (r *RateProfile) Contains(obj Object) bool { return r.entries.find(obj) != nil }

// Evictions implements Policy.
func (r *RateProfile) Evictions() int64 { return r.evictions }

// setEntries replaces the cache's contents (RestoreState) and rebuilds
// the heap from them, unordered.
func (r *RateProfile) setEntries(entries objTable[*rpEntry]) {
	r.entries = entries
	r.heap, r.heaped = nil, false
	entries.each(func(_ ObjectID, e **rpEntry) {
		(*e).idx = len(r.heap)
		r.heap = append(r.heap, victimCand{e: *e})
	})
}

// ProfileCount reports the number of out-of-cache profiles retained
// (exposed for tests of the pruning bound).
func (r *RateProfile) ProfileCount() int { return r.profiles.size() }

// SetTelemetry implements TelemetrySetter: episode open/close churn
// is published through tel.
func (r *RateProfile) SetTelemetry(tel *Telemetry) { r.profiles.tel = tel }

// Contents implements ContentLister.
func (r *RateProfile) Contents() []ObjectID {
	ids := make([]ObjectID, 0, len(r.heap))
	for _, c := range r.heap {
		ids = append(ids, c.e.obj.ID)
	}
	return ids
}

// LastExplain implements SelfExplainer: the comparison behind the most
// recent Access (its RP on a hit, LAR and victim RPs on a miss, plus
// the object's episode state and the branch that fired).
func (r *RateProfile) LastExplain() *Explain { return &r.last }

// Access implements Policy.
func (r *RateProfile) Access(t int64, obj Object, yield int64) Decision {
	if t != r.heapT {
		r.heaped = false
	}
	if p := r.entries.find(obj); p != nil {
		e := *p
		e.sumYield += yield
		rp := e.rp(t)
		r.last = Explain{RP: rp, Reason: ReasonInCache}
		if r.heaped {
			r.heap[e.idx].rp = rp
			r.fix(e.idx)
		}
		return Hit
	}
	r.last = r.profiles.observe(t, obj, yield)
	lar := r.last.LAR
	if obj.Size > r.cfg.Capacity {
		r.last.Reason = ReasonOversize
		return Bypass
	}
	needed := obj.Size - (r.cfg.Capacity - r.used)
	if needed <= 0 {
		if lar <= 0 {
			r.last.Reason = ReasonLARNonpositive
			return Bypass
		}
		r.last.Reason = ReasonFitsFree
		r.load(t, obj, yield)
		return Load
	}
	victims, maxRP, freed := r.selectVictims(t, needed)
	r.last.VictimRP = maxRP
	if freed < needed {
		r.last.Reason = ReasonVictimsInsufficient
		return Bypass
	}
	if maxRP >= lar {
		r.last.Reason = ReasonVictimsSaveMore
		return Bypass
	}
	r.last.Reason = ReasonLARBeatsVictims
	for _, e := range victims {
		r.evict(e)
	}
	r.load(t, obj, yield)
	return Load
}

// victimCand is a cached object as a candidate for eviction.
type victimCand struct {
	e  *rpEntry
	rp float64
}

// before orders candidates for eviction: lowest RP first, ties by id
// so the choice does not depend on where an entry is kept.
func (c *victimCand) before(d *victimCand) bool {
	if c.rp != d.rp {
		return c.rp < d.rp
	}
	return c.e.obj.ID < d.e.obj.ID
}

// selectVictims returns the lowest-RP cached objects, in eviction
// order, whose combined size frees at least `needed` bytes, together
// with the maximum RP in the victim set and the total bytes freed. A
// miss evicts a few of the many cached objects, so the candidates are
// heaped (linear) and only the victims popped, not all sorted. The
// accesses of one query share its tick, so the heap is built by the
// tick's first such miss and kept in order after it (see heap); the
// victims after the first are popped from a copy, so the heap stays
// whole for the query's next miss. Since every cached object's size is
// positive, every RP is finite and (RP, id) is a total order: the
// victims do not depend on where an entry sits in the heap. The
// returned slice is valid until the next call.
func (r *RateProfile) selectVictims(t, needed int64) (victims []*rpEntry, maxRP float64, freed int64) {
	if !r.heaped || t != r.heapT {
		r.build(t)
	}
	h := r.heap
	victims = r.victims[:0]
	for freed < needed && len(h) > 0 {
		c := h[0]
		victims = append(victims, c.e)
		freed += c.e.obj.Size
		if c.rp > maxRP {
			maxRP = c.rp
		}
		if freed >= needed {
			break
		}
		if len(victims) == 1 {
			h = append(r.cands[:0], h...)
			r.cands = h
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0, false)
	}
	r.victims = victims
	return victims, maxRP, freed
}

// build computes every cached entry's RP at t and heaps them (linear).
func (r *RateProfile) build(t int64) {
	h := r.heap
	for i := range h {
		h[i].rp = h[i].e.rp(t)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, true)
	}
	r.heapT, r.heaped = t, true
	r.builds++
}

// fix restores the heap's order around position i, whose RP changed or
// which another entry moved into.
func (r *RateProfile) fix(i int) {
	if !siftUp(r.heap, i) {
		siftDown(r.heap, i, true)
	}
}

// siftDown restores the min-heap order of h below position i. With
// place, every entry it moves learns its new idx (the policy's heap);
// without, h is a copy whose positions mean nothing to the entries.
func siftDown(h []victimCand, i int, place bool) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		if place {
			h[i].e.idx, h[least].e.idx = i, least
		}
		i = least
	}
}

// siftUp moves the entry at position i of the policy's heap towards the
// root while it goes before its parent, and reports whether it moved.
func siftUp(h []victimCand, i int) bool {
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].e.idx, h[parent].e.idx = i, parent
		i = parent
	}
	return i != start
}

func (r *RateProfile) load(t int64, obj Object, yield int64) {
	r.profiles.onLoad(obj)
	e := &rpEntry{obj: obj, loadTime: t, sumYield: yield, idx: len(r.heap)}
	*r.entries.put(obj) = e
	r.heap = append(r.heap, victimCand{e: e})
	if r.heaped {
		r.heap[e.idx].rp = e.rp(t)
		siftUp(r.heap, e.idx)
	}
	r.used += obj.Size
}

func (r *RateProfile) evict(e *rpEntry) {
	r.entries.del(e.obj)
	last := len(r.heap) - 1
	r.heap[e.idx] = r.heap[last]
	r.heap[e.idx].e.idx = e.idx
	r.heap[last] = victimCand{}
	r.heap = r.heap[:last]
	if r.heaped && e.idx < last {
		r.fix(e.idx)
	}
	r.used -= e.obj.Size
	r.evictions++
}
