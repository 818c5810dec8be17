package core

// Online counterfactual accounting: shadow policies fed the same
// access stream as the live policy, state-only (no I/O, no cache
// contents — just the Figure-1 flow arithmetic), answering "how much
// WAN traffic is the policy saving right now?" against the two
// baselines an operator would actually deploy instead:
//
//   - always-bypass: the no-cache configuration (the paper's sequence
//     cost D_seq) — every access ships its cost-scaled yield.
//   - lruk: in-line LRU-K (K=2) at the same capacity — the classic
//     "cache everything on miss" database buffer discipline.
//
// Alongside the baselines it maintains the ski-rental lower bound of
// Section 5.2: per object, no algorithm (even offline) can pay less
// than min(Σ bypass costs, f_i) while the cumulative demand stands,
// so Σ_i min(acc_i, f_i) lower-bounds OPT's WAN traffic and
// realizedWAN / bound is an online upper estimate of the competitive
// ratio. The bound ignores cache capacity, so the ratio is
// conservative (an actual capacity-constrained OPT may be worse than
// the bound, never better).
//
// ShadowSet is deliberately cheap, so it can run in production
// mediators, not just experiments: an access costs two map-backed
// policy updates and one accumulator update and allocates nothing once
// its object has been seen — about a fifth of a microsecond
// (BenchmarkShadowAccess). It publishes nothing: a registry collector
// reads its Stats under the lock that serializes its accesses
// (Telemetry.Mirror).

// ShadowResult reports one baseline's counterfactual accounting.
type ShadowResult struct {
	// Name identifies the baseline ("always-bypass", "lruk").
	Name string `json:"name"`
	// Acct is the flow accounting the baseline would have produced.
	Acct Accounting `json:"acct"`
	// SavedBytes is the baseline's WAN traffic minus the realized WAN
	// traffic: positive when the live policy beats the baseline.
	SavedBytes int64 `json:"saved_bytes"`
}

type shadowEntry struct {
	name   string
	policy Policy
	acct   Accounting
}

// ShadowSet runs the counterfactual baselines and the ski-rental
// bound over the live request stream. Like the policies themselves it
// is single-goroutine (the mediator serializes accesses); a nil
// *ShadowSet is a valid no-op so call sites thread it
// unconditionally.
type ShadowSet struct {
	realized Accounting
	shadows  []*shadowEntry
	optAcc   map[ObjectID]*int64 // per-object accumulated bypass cost
	optBound int64               // Σ_i min(optAcc[i], f_i)
}

// NewShadowSet builds the baseline set for a live cache of the given
// capacity: always-bypass plus in-line LRU-K (K=2) at the same
// capacity.
func NewShadowSet(capacity int64) *ShadowSet {
	return &ShadowSet{
		shadows: []*shadowEntry{
			{name: "always-bypass", policy: NewNoCache()},
			{name: "lruk", policy: NewLRUK(capacity, 2)},
		},
		optAcc: make(map[ObjectID]*int64),
	}
}

// Access feeds one decided access: d is the LIVE policy's decision
// (already made); the shadows replay the same (t, obj, yield) through
// their own state. Call after the live decision, once per access.
func (s *ShadowSet) Access(t int64, obj Object, yield int64, d Decision) {
	if s == nil {
		return
	}
	Account(&s.realized, obj, yield, d) //nolint:errcheck // d was validated by the live Account

	for _, e := range s.shadows {
		sd := e.policy.Access(t, obj, yield)
		Account(&e.acct, obj, yield, sd) //nolint:errcheck
	}

	// Ski-rental bound increment: min(acc+c, f) − min(acc, f).
	c := obj.BypassCost(yield)
	acc := s.optAcc[obj.ID]
	if acc == nil {
		acc = new(int64)
		s.optAcc[obj.ID] = acc
	}
	prev := *acc
	*acc = prev + c
	s.optBound += minInt64(prev+c, obj.FetchCost) - minInt64(prev, obj.FetchCost)
}

// Realized returns the accounting of the live decisions as the shadow
// set observed them (zero value on a nil set).
func (s *ShadowSet) Realized() Accounting {
	if s == nil {
		return Accounting{}
	}
	return s.realized
}

// Baselines returns each baseline's counterfactual accounting and
// savings. Nil on a nil set.
func (s *ShadowSet) Baselines() []ShadowResult {
	if s == nil {
		return nil
	}
	realizedWAN := s.realized.WANBytes()
	out := make([]ShadowResult, 0, len(s.shadows))
	for _, e := range s.shadows {
		out = append(out, ShadowResult{
			Name:       e.name,
			Acct:       e.acct,
			SavedBytes: e.acct.WANBytes() - realizedWAN,
		})
	}
	return out
}

// SavedVs returns the bytes saved against one named baseline (0 for
// an unknown name or nil set).
func (s *ShadowSet) SavedVs(name string) int64 {
	for _, r := range s.Baselines() {
		if r.Name == name {
			return r.SavedBytes
		}
	}
	return 0
}

// OptBound returns the running ski-rental lower bound on any
// algorithm's WAN traffic for the observed stream.
func (s *ShadowSet) OptBound() int64 {
	if s == nil {
		return 0
	}
	return s.optBound
}

// ShadowStats is a shadow set's state at one instant: each baseline's
// counterfactual accounting and savings, the ski-rental bound, and the
// competitive ratio in thousandths (0 until the bound is positive).
type ShadowStats struct {
	Baselines             []ShadowResult
	OptBoundBytes         int64
	CompetitiveRatioMilli int64
}

// Stats reads the set's state (zero on a nil set).
func (s *ShadowSet) Stats() ShadowStats {
	if s == nil {
		return ShadowStats{}
	}
	st := ShadowStats{Baselines: s.Baselines(), OptBoundBytes: s.optBound}
	if s.optBound > 0 {
		st.CompetitiveRatioMilli = s.realized.WANBytes() * 1000 / s.optBound
	}
	return st
}

// CompetitiveRatio returns realized WAN / bound, the online upper
// estimate of the live policy's competitive ratio (0 until the bound
// is positive; always ≥ 1 afterwards, since the bound also
// lower-bounds the live policy).
func (s *ShadowSet) CompetitiveRatio() float64 {
	if s == nil || s.optBound == 0 {
		return 0
	}
	return float64(s.realized.WANBytes()) / float64(s.optBound)
}

// Reset clears all shadow state for a fresh run.
func (s *ShadowSet) Reset() {
	if s == nil {
		return
	}
	s.realized = Accounting{}
	for _, e := range s.shadows {
		e.policy.Reset()
		e.acct = Accounting{}
	}
	s.optAcc = make(map[ObjectID]*int64)
	s.optBound = 0
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
