package core

import "bypassyield/internal/obs/ledger"

// Explain captures the inputs behind a policy's most recent Access
// decision — the quantities the paper's algorithms actually compare
// (RP vs. LAR, the BYU accumulator, episode state) plus a compact
// reason code naming the rule that fired. Policies that can explain
// themselves implement SelfExplainer; DecisionRecordFor folds the
// explanation into a ledger.DecisionRecord.
//
// Explain is a value (no pointers) and its Reason strings are the
// interned constants below, so capturing one allocates nothing.
type Explain struct {
	// RP is the in-cache rate profile involved in the decision (the
	// object's own RP on a hit; see VictimRP for eviction comparisons).
	RP float64
	// LAR is the candidate's load-adjusted rate (eqs. 4-6).
	LAR float64
	// BYU is the normalized ski-rental accumulator (OnlineBY).
	BYU float64
	// VictimRP is the maximum rate profile in the would-be victim set.
	VictimRP float64
	// Episodes counts the object's completed episodes.
	Episodes int64
	// EpisodePhase is "open" while the object is mid-burst, "closed"
	// otherwise, "" when the policy tracks no episodes.
	EpisodePhase string
	// Reason names the rule that produced the decision.
	Reason string
}

// Reason codes. Each names the single branch of a policy's Access
// that produced the decision, so an operator reading a ledger can map
// a record straight back to the algorithm text.
const (
	// ReasonInCache: the object was cached; the access is a hit.
	ReasonInCache = "in-cache"
	// ReasonOversize: the object exceeds the whole cache capacity and
	// can never be loaded.
	ReasonOversize = "object-exceeds-capacity"
	// ReasonLARNonpositive: free space was available but the candidate's
	// LAR has not overcome the load penalty, so loading is a bad
	// investment.
	ReasonLARNonpositive = "lar-nonpositive"
	// ReasonFitsFree: the object fit in free space and its LAR is
	// positive; loaded without evicting.
	ReasonFitsFree = "fits-free-space"
	// ReasonVictimsInsufficient: evicting every candidate victim still
	// would not free enough space.
	ReasonVictimsInsufficient = "victims-insufficient"
	// ReasonVictimsSaveMore: some would-be victim currently saves at a
	// rate ≥ the candidate's LAR; keeping the victims is better.
	ReasonVictimsSaveMore = "victims-save-more"
	// ReasonLARBeatsVictims: the candidate's LAR exceeds every victim's
	// RP; victims evicted, object loaded.
	ReasonLARBeatsVictims = "lar-beats-victims"
	// ReasonAccumulating: OnlineBY's BYU accumulator has not yet reached
	// 1; the access is bypassed while the ski rental keeps renting.
	ReasonAccumulating = "accumulating-byu"
	// ReasonBYUCrossed: the accumulator crossed 1 and A_obj admitted the
	// object.
	ReasonBYUCrossed = "byu-crossed"
	// ReasonAObjDeclined: the accumulator crossed 1 but A_obj declined
	// to admit (or immediately evicted) the object.
	ReasonAObjDeclined = "aobj-declined"

	// ReasonForcedCache prefixes degraded-mode forced hits: the owning
	// site was unavailable, bypass was impossible, and the cached copy
	// was served stale. The full reason is
	// "forced-cache: <site health detail>".
	ReasonForcedCache = "forced-cache"
	// ReasonFailedLeg prefixes dropped accesses: site unavailable and
	// the object not cached, so the leg could not be served at all.
	ReasonFailedLeg = "failed"
)

// SelfExplainer is an optional Policy interface: LastExplain is where
// the policy keeps the inputs behind its most recent Access decision.
// The pointer is the same for the policy's life and the Explain behind
// it is overwritten by every Access, so callers read it, never write it,
// before the next one. The Decider asks once and reads the explanation
// in place: copying the whole Explain out on every access was nearly a
// third of the decision hold on edr-cached.
type SelfExplainer interface {
	LastExplain() *Explain
}

// WANCost returns the WAN traffic a decision charges under the
// Figure-1 flow rules: 0 for a hit, the cost-scaled yield for a
// bypass, the fetch cost for a load.
func WANCost(obj Object, yield int64, d Decision) int64 {
	switch d {
	case Bypass:
		return obj.BypassCost(yield)
	case Load:
		return obj.FetchCost
	default:
		return 0
	}
}

// DecisionRecordFor builds the ledger record for one decided access,
// folding in the policy's self-explanation when it offers one. The
// record's Seq is assigned by the ledger; T is the query clock.
// Safe on a nil policy (the record just carries no policy name).
func DecisionRecordFor(t int64, p Policy, trace string, obj Object, yield int64, d Decision) ledger.DecisionRecord {
	var rec ledger.DecisionRecord
	if p == nil {
		fillRecord(&rec, t, "", nil, trace, obj, yield, d)
		return rec
	}
	var ex *Explain
	if se, ok := p.(SelfExplainer); ok {
		ex = se.LastExplain()
	}
	fillRecord(&rec, t, p.Name(), ex, trace, obj, yield, d)
	return rec
}

// fillRecord writes one decided access into a zero record, in place,
// with the policy's explanation ex (nil for none): the Decider fills the
// ledger's ring slots with it, having resolved the policy's name and
// where its explanation lives once.
func fillRecord(rec *ledger.DecisionRecord, t int64, policy string, ex *Explain, trace string, obj Object, yield int64, d Decision) {
	rec.T = t
	rec.Policy = policy
	rec.Trace = trace
	rec.Object = string(obj.ID)
	rec.Action = d.String()
	rec.Yield = yield
	rec.WANCost = WANCost(obj, yield, d)
	rec.Size = obj.Size
	rec.FetchCost = obj.FetchCost
	if ex != nil {
		rec.RP = ex.RP
		rec.LAR = ex.LAR
		rec.BYU = ex.BYU
		rec.VictimRP = ex.VictimRP
		rec.Episodes = ex.Episodes
		rec.EpisodePhase = ex.EpisodePhase
		rec.Reason = ex.Reason
	}
}
