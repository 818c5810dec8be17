package core

// OnlineBY is the competitive on-line bypass-yield algorithm of
// Section 5.2 (Figure 2). It runs a per-object ski-rental: every
// access adds y/s to the object's BYU accumulator; each time the
// accumulator reaches 1 — i.e. the cumulative bypassed yield matches
// the object's size, so bypass traffic has paid what a load would
// have cost — the object is presented as a whole-object request to
// the bypass-object caching subroutine A_obj, and the cache is
// maintained exactly as A_obj maintains it. Accesses to cached
// objects are hits; all other accesses are bypassed.
//
// Theorem 5.1: for every α-competitive A_obj this yields a
// (4α+2)-competitive bypass-yield algorithm; with Landlord
// (k-competitive for file caching) this is the deterministic
// algorithm referenced in the paper's abstract.
type OnlineBY struct {
	aobj ObjectCacher
	// acc accumulates yield BYTES per object; the BYU accumulator of
	// Figure 2 is acc/size. Integer bytes keep the crossings exact
	// and bit-identical to the grouped sequence of Lemma 5.1.
	acc  objTable[int64]
	last Explain
}

// NewOnlineBY returns an OnlineBY policy running over the given
// bypass-object caching subroutine.
func NewOnlineBY(aobj ObjectCacher) *OnlineBY {
	return &OnlineBY{aobj: aobj}
}

// Name implements Policy: "online-by", with aobjSuffix appended.
func (o *OnlineBY) Name() string { return "online-by" + aobjSuffix(o.aobj) }

// aobjSuffix is what OnlineBY's and SpaceEffBY's names carry of their
// A_obj, whose competitive ratio α their bound (4α+2) is taken from:
// nothing for Landlord, the paper's default, "-marking" for size-class
// marking, the one other A_obj.
func aobjSuffix(aobj ObjectCacher) string {
	if aobj.Name() == "size-class-marking" {
		return "-marking"
	}
	return ""
}

// Used implements Policy.
func (o *OnlineBY) Used() int64 { return o.aobj.Used() }

// Capacity implements Policy.
func (o *OnlineBY) Capacity() int64 { return o.aobj.Capacity() }

// Contains implements Policy.
func (o *OnlineBY) Contains(obj Object) bool { return o.aobj.Contains(obj) }

// Evictions implements Policy.
func (o *OnlineBY) Evictions() int64 { return o.aobj.Evictions() }

// Contents implements ContentLister: the subroutine's cache.
func (o *OnlineBY) Contents() []ObjectID { return o.aobj.Contents() }

// AccumulatedYield returns the ski-rental accumulator for an object in
// bytes; the paper's BYU accumulator is this divided by the object
// size, so it always lies in [0, size) after an access.
func (o *OnlineBY) AccumulatedYield(id ObjectID) int64 {
	if p := o.acc.findID(id); p != nil {
		return *p
	}
	return 0
}

// Access implements Policy, following Figure 2 of the paper. One
// generalization: when a single query's yield exceeds the object size
// the accumulator crosses 1 several times, and — matching the grouped
// sequence of Lemma 5.1, where one query may end several groups — the
// object is presented to A_obj once per crossing.
func (o *OnlineBY) Access(t int64, obj Object, yield int64) Decision {
	acc := o.acc.put(obj) // A_obj keeps tables of its own: acc stays good
	*acc += yield
	loaded := false
	crossed := *acc >= obj.Size
	for *acc >= obj.Size {
		*acc -= obj.Size
		if o.aobj.Request(obj) == ObjLoad {
			loaded = true
		}
	}
	// The explanation reports the post-access accumulator (in [0, 1))
	// and which ski-rental branch fired: still renting, crossed and
	// admitted, or crossed but declined by A_obj.
	o.last = Explain{BYU: float64(*acc) / float64(obj.Size)}
	if o.aobj.Contains(obj) {
		if loaded {
			o.last.Reason = ReasonBYUCrossed
			return Load
		}
		o.last.Reason = ReasonInCache
		return Hit
	}
	if crossed {
		o.last.Reason = ReasonAObjDeclined
	} else {
		o.last.Reason = ReasonAccumulating
	}
	return Bypass
}

// LastExplain implements SelfExplainer: the BYU accumulator after the
// most recent access and the ski-rental branch that fired.
func (o *OnlineBY) LastExplain() *Explain { return &o.last }
