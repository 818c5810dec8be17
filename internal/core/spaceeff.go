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
	src  *countedSource
	rng  *rand.Rand
}

// countedSource counts the values drawn from a source: a snapshot
// records the count, and a restore draws the receiver's source up to
// it, so the restored policy continues the stream where it stood.
type countedSource struct {
	rand.Source
	n uint64
}

func (c *countedSource) Int63() int64 { c.n++; return c.Source.Int63() }

// NewSpaceEffBY returns a SpaceEffBY policy over the given subroutine,
// drawing randomness from the given source. A nil source selects a
// fixed-seed generator for reproducibility.
func NewSpaceEffBY(aobj ObjectCacher, src rand.Source) *SpaceEffBY {
	if src == nil {
		src = rand.NewSource(1)
	}
	counted := &countedSource{Source: src}
	return &SpaceEffBY{aobj: aobj, src: counted, rng: rand.New(counted)}
}

// Name implements Policy: "space-eff-by", with aobjSuffix appended.
func (s *SpaceEffBY) Name() string { return "space-eff-by" + aobjSuffix(s.aobj) }

// Used implements Policy.
func (s *SpaceEffBY) Used() int64 { return s.aobj.Used() }

// Capacity implements Policy.
func (s *SpaceEffBY) Capacity() int64 { return s.aobj.Capacity() }

// Contains implements Policy.
func (s *SpaceEffBY) Contains(obj Object) bool { return s.aobj.Contains(obj) }

// Evictions implements Policy.
func (s *SpaceEffBY) Evictions() int64 { return s.aobj.Evictions() }

// Contents implements ContentLister: the subroutine's cache.
func (s *SpaceEffBY) Contents() []ObjectID { return s.aobj.Contents() }

// Access implements Policy, following Figure 3 of the paper.
func (s *SpaceEffBY) Access(t int64, obj Object, yield int64) Decision {
	p := float64(yield) / float64(obj.Size)
	var action ObjAction = ObjBypass
	presented := false
	if s.rng.Float64() < p {
		action = s.aobj.Request(obj)
		presented = true
	}
	if s.aobj.Contains(obj) {
		if presented && action == ObjLoad {
			return Load
		}
		return Hit
	}
	return Bypass
}
