package core

import "sort"

// StaticOptimal is the paper's "static table caching" sanity check: an
// offline policy whose cache is populated with the best static set of
// objects for the whole trace, with no loading or eviction thereafter.
// All accesses to chosen objects are served in cache (the first access
// pays the fetch cost, modelling lazy population); every other access
// is bypassed.
//
// Choosing the set is a 0/1 knapsack: maximize Σ (total yield − fetch
// cost) subject to Σ size ≤ capacity, over objects whose whole-trace
// savings are positive. PlanStatic solves it with dynamic programming
// on a scaled capacity grid and falls back to the classic
// density-greedy 1/2-approximation when the instance is too large,
// returning whichever of the two plans saves more.
type StaticOptimal struct {
	cap    int64
	used   int64
	chosen map[ObjectID]bool
	loaded map[ObjectID]bool
}

// objStat aggregates an object's whole-trace demand.
type objStat struct {
	obj   Object
	yield int64 // Σ bypass-cost-scaled yield over the trace
}

// PlanStatic computes the optimal static cache contents for a trace
// and returns the policy. Objects not referenced by the trace are
// never chosen.
func PlanStatic(capacity int64, reqs []Request, objects map[ObjectID]Object) *StaticOptimal {
	stats := make(map[ObjectID]*objStat)
	for _, req := range reqs {
		for _, acc := range req.Accesses {
			obj, ok := objects[acc.Object]
			if !ok {
				continue
			}
			st := stats[acc.Object]
			if st == nil {
				st = &objStat{obj: obj}
				stats[acc.Object] = st
			}
			st.yield += obj.BypassCost(acc.Yield)
		}
	}
	// Candidates: positive net savings and fits alone.
	type cand struct {
		obj     Object
		savings int64 // yield − fetch
	}
	var cands []cand
	for _, st := range stats {
		savings := st.yield - st.obj.FetchCost
		if savings > 0 && st.obj.Size <= capacity {
			cands = append(cands, cand{st.obj, savings})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].obj.ID < cands[j].obj.ID })

	s := &StaticOptimal{cap: capacity, chosen: make(map[ObjectID]bool), loaded: make(map[ObjectID]bool)}
	if len(cands) == 0 || capacity <= 0 {
		return s
	}

	// Greedy by savings density, plus best single item (1/2-approx).
	greedy := func() (map[ObjectID]bool, int64) {
		order := make([]cand, len(cands))
		copy(order, cands)
		sort.Slice(order, func(i, j int) bool {
			di := float64(order[i].savings) / float64(order[i].obj.Size)
			dj := float64(order[j].savings) / float64(order[j].obj.Size)
			if di != dj {
				return di > dj
			}
			return order[i].obj.ID < order[j].obj.ID
		})
		set := make(map[ObjectID]bool)
		var used, total int64
		for _, c := range order {
			if used+c.obj.Size <= capacity {
				set[c.obj.ID] = true
				used += c.obj.Size
				total += c.savings
			}
		}
		var best cand
		for _, c := range cands {
			if c.savings > best.savings {
				best = c
			}
		}
		if best.savings > total {
			return map[ObjectID]bool{best.obj.ID: true}, best.savings
		}
		return set, total
	}

	// Exact DP on a scaled capacity grid. Grid of up to 4096 units
	// keeps the table small; sizes are rounded UP so the plan never
	// exceeds the true capacity.
	dp := func() (map[ObjectID]bool, int64) {
		const grid = 4096
		unit := (capacity + grid - 1) / grid
		if unit < 1 {
			unit = 1
		}
		w := int(capacity / unit)
		if w == 0 {
			return nil, 0
		}
		n := len(cands)
		if n*w > 64<<20 { // too large; let greedy stand
			return nil, -1
		}
		// best[j] = max savings using scaled capacity j.
		best := make([]int64, w+1)
		take := make([][]bool, n)
		for i, c := range cands {
			take[i] = make([]bool, w+1)
			sz := int((c.obj.Size + unit - 1) / unit)
			if sz == 0 {
				sz = 1
			}
			for j := w; j >= sz; j-- {
				if v := best[j-sz] + c.savings; v > best[j] {
					best[j] = v
					take[i][j] = true
				}
			}
		}
		set := make(map[ObjectID]bool)
		j := w
		for i := n - 1; i >= 0; i-- {
			if take[i][j] {
				set[cands[i].obj.ID] = true
				sz := int((cands[i].obj.Size + unit - 1) / unit)
				if sz == 0 {
					sz = 1
				}
				j -= sz
			}
		}
		return set, best[w]
	}

	gSet, gVal := greedy()
	dSet, dVal := dp()
	if dVal >= gVal && dSet != nil {
		s.chosen = dSet
	} else {
		s.chosen = gSet
	}
	for id := range s.chosen {
		s.used += objects[id].Size
	}
	return s
}

// Name implements Policy.
func (s *StaticOptimal) Name() string { return "static-optimal" }

// Used implements Policy. The chosen set is charged in full: the cache
// is statically provisioned for it.
func (s *StaticOptimal) Used() int64 { return s.used }

// Capacity implements Policy.
func (s *StaticOptimal) Capacity() int64 { return s.cap }

// Contains implements Policy: a chosen object is in the cache from its
// first access, which loads it, on.
func (s *StaticOptimal) Contains(obj Object) bool { return s.loaded[obj.ID] }

// Evictions implements Policy; a static cache never evicts.
func (s *StaticOptimal) Evictions() int64 { return 0 }

// Chosen returns the planned static contents (for reports and tests).
func (s *StaticOptimal) Chosen() []ObjectID {
	ids := make([]ObjectID, 0, len(s.chosen))
	for id := range s.chosen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Access implements Policy.
func (s *StaticOptimal) Access(t int64, obj Object, yield int64) Decision {
	if !s.chosen[obj.ID] {
		return Bypass
	}
	if !s.loaded[obj.ID] {
		s.loaded[obj.ID] = true
		return Load
	}
	return Hit
}

// NoCache is the paper's "sequence cost" baseline: every access is
// bypassed, so WAN traffic is exactly the sum of all query result
// sizes shipped from the servers.
type NoCache struct{}

// NewNoCache returns the no-caching baseline.
func NewNoCache() *NoCache { return &NoCache{} }

// Name implements Policy.
func (NoCache) Name() string { return "none" }

// Access implements Policy.
func (NoCache) Access(t int64, obj Object, yield int64) Decision { return Bypass }

// Used implements Policy.
func (NoCache) Used() int64 { return 0 }

// Capacity implements Policy.
func (NoCache) Capacity() int64 { return 0 }

// Contains implements Policy.
func (NoCache) Contains(Object) bool { return false }

// Evictions implements Policy.
func (NoCache) Evictions() int64 { return 0 }
