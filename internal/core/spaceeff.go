package core

import "math/rand"

// SpaceEffBY is the randomized, space-efficient bypass-yield algorithm
// of Section 5.3 (Figure 3). Instead of maintaining a per-object BYU
// accumulator like OnlineBY, it presents the object to the
// bypass-object caching subroutine A_obj with probability y/s on each
// access, simulating the same expected behaviour with O(1) extra
// space. The paper offers no competitive guarantee for it; empirically
// it trails OnlineBY, showing that some state aids the bypass
// decision.
type SpaceEffBY struct {
	aobj ObjectCacher
	rng  *rand.Rand
}

// NewSpaceEffBY returns a SpaceEffBY policy over the given subroutine,
// drawing randomness from the given source. A nil source selects a
// fixed-seed generator for reproducibility.
func NewSpaceEffBY(aobj ObjectCacher, src rand.Source) *SpaceEffBY {
	if src == nil {
		src = rand.NewSource(1)
	}
	return &SpaceEffBY{aobj: aobj, rng: rand.New(src)}
}

// Name implements Policy: "space-eff-by", with aobjSuffix appended.
func (s *SpaceEffBY) Name() string { return "space-eff-by" + aobjSuffix(s.aobj) }

// Used implements Policy.
func (s *SpaceEffBY) Used() int64 { return s.aobj.Used() }

// Capacity implements Policy.
func (s *SpaceEffBY) Capacity() int64 { return s.aobj.Capacity() }

// Contains implements Policy.
func (s *SpaceEffBY) Contains(id ObjectID) bool { return s.aobj.Contains(id) }

// Evictions implements Policy.
func (s *SpaceEffBY) Evictions() int64 { return s.aobj.Evictions() }

// Reset implements Policy. The random stream continues; pass a fresh
// source to NewSpaceEffBY for bitwise-identical reruns.
func (s *SpaceEffBY) Reset() { s.aobj.Reset() }

// Access implements Policy, following Figure 3 of the paper.
func (s *SpaceEffBY) Access(t int64, obj Object, yield int64) Decision {
	p := float64(yield) / float64(obj.Size)
	var action ObjAction = ObjBypass
	presented := false
	if s.rng.Float64() < p {
		action = s.aobj.Request(obj)
		presented = true
	}
	if s.aobj.holds(obj) {
		if presented && action == ObjLoad {
			return Load
		}
		return Hit
	}
	return Bypass
}
