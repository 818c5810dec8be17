package core

// Online counterfactual accounting: two running sums over the live
// access stream, answering "how much WAN traffic is the policy saving
// right now?" against the baseline an operator would deploy instead.
//
//   - always-bypass: the no-cache configuration (the paper's sequence
//     cost D_seq) — every access ships its cost-scaled yield, so its
//     WAN is Σ BypassCost(yield).
//   - the ski-rental lower bound of Section 5.2: per object, no
//     algorithm (even offline) can pay less than min(Σ bypass costs,
//     f_i) while the cumulative demand stands, so Σ_i min(acc_i, f_i)
//     lower-bounds OPT's WAN traffic and realizedWAN / bound is an
//     online upper estimate of the competitive ratio. The bound ignores
//     cache capacity, so the ratio is conservative (an actual
//     capacity-constrained OPT may be worse than the bound, never
//     better).
//
// The realized WAN is not kept here: it is the Decider's Acct, minus
// what the Decider adopted from before the process started (a restored
// snapshot, a replayed journal), so every figure covers the same
// accesses — those the set has seen.
//
// An access costs one add and one update of its object's accumulator,
// found by the object's slot, and allocates nothing once its object has
// been seen (BenchmarkShadowAccess). The set
// publishes nothing: a registry collector reads its Stats under the
// lock that serializes its accesses (Telemetry.Mirror).

// ShadowSet keeps the always-bypass WAN and the ski-rental bound over
// the live request stream. Like the policies themselves it is
// single-goroutine (the mediator serializes accesses); a nil
// *ShadowSet is a valid no-op so call sites thread it
// unconditionally.
type ShadowSet struct {
	bypassWAN int64           // Σ BypassCost(yield): always-bypass WAN
	optAcc    objTable[int64] // per-object accumulated bypass cost
	optBound  int64           // Σ_i min(optAcc[i], f_i)
	adopted   int64           // WAN in the Decider's Acct the set never saw
}

// NewShadowSet returns an empty set.
func NewShadowSet() *ShadowSet { return &ShadowSet{} }

// Access feeds one decided access, whatever the live policy decided.
func (s *ShadowSet) Access(obj Object, yield int64) {
	if s == nil {
		return
	}
	c := obj.BypassCost(yield)
	s.bypassWAN += c

	// Ski-rental bound increment: min(acc+c, f) − min(acc, f).
	acc := s.optAcc.put(obj)
	prev := *acc
	*acc = prev + c
	s.optBound += min(prev+c, obj.FetchCost) - min(prev, obj.FetchCost)
}

// adopt notes WAN bytes charged to the Decider's accounting without
// the set seeing the accesses that moved them (nil-safe).
func (s *ShadowSet) adopt(wan int64) {
	if s != nil {
		s.adopted += wan
	}
}

// ShadowStats is a shadow set's state at one instant: the always-bypass
// WAN and what the live policy saved against it, the ski-rental bound,
// and the competitive ratio in thousandths (0 until the bound is
// positive).
type ShadowStats struct {
	BypassWANBytes        int64
	SavedVsBypassBytes    int64
	OptBoundBytes         int64
	CompetitiveRatioMilli int64
}

// Stats reads the set against acct, the accounting of the Decider the
// set observes, read under the same lock (zero on a nil set). The
// realized WAN is acct's minus what the set never saw, and the savings
// are signed: a policy that loads at a loss ships more than
// always-bypass.
func (s *ShadowSet) Stats(acct Accounting) ShadowStats {
	if s == nil {
		return ShadowStats{}
	}
	realized := acct.WANBytes() - s.adopted
	st := ShadowStats{
		BypassWANBytes:     s.bypassWAN,
		SavedVsBypassBytes: s.bypassWAN - realized,
		OptBoundBytes:      s.optBound,
	}
	if s.optBound > 0 {
		st.CompetitiveRatioMilli = realized * 1000 / s.optBound
	}
	return st
}
