// Package ledger is the decision ledger of the bypass-yield cache:
// a bounded ring of structured DecisionRecords — one per policy
// decision — with an optional sink for durable audit logs (byproxyd
// -ledger-out appends to an obs.JSONL). Where the obs registry answers
// "how much" (aggregate byte counters, rates, histograms), the ledger
// answers "why": every
// record carries the inputs that drove the serve/load/bypass choice
// (RP, LAR, BYU, episode state, fetch cost, size) plus the realized
// yield and WAN charge, correlated to the distributed trace the
// access rode in on.
//
// The ring holds records by value and is not safe for concurrent use:
// its owner serializes it. In the daemons that is the mediator, whose
// decision lock covers every write (core.Decider, across a query's decide
// loop) and every read (a scrape's one reading of the decision plane);
// core.Simulator keeps its ledger on its one goroutine. Next hands the
// writer each record's slot in the ring to fill in place, so a record is
// written once and nothing is allocated, and Flush hands the sink what it
// has not had. A nil *Ledger is a valid no-op, so call sites thread it
// unconditionally.
//
// The package deliberately depends on nothing above the standard
// library so every layer (core, wire, cmd) can import it freely.
package ledger

import (
	"slices"
	"sort"
)

// DecisionRecord explains one policy decision. Numeric fields are the
// decision's inputs at the moment it was taken; which are meaningful
// depends on the policy (RP/LAR/episodes for rate-profile, BYU for
// online-by). String fields are either interned constants ("hit",
// reason codes) or ids that already existed at the call site, so
// building a record does not allocate.
type DecisionRecord struct {
	// Seq is the ledger sequence number (1-based, assigned by Next).
	Seq uint64 `json:"seq"`
	// T is the query clock (the mediator's statement counter).
	T int64 `json:"t"`
	// Policy names the deciding policy ("rate-profile", ...).
	Policy string `json:"policy,omitempty"`
	// Trace is the distributed trace id of the enclosing query (16 hex
	// digits, "" when untraced) — the join key to its exemplars.
	Trace string `json:"trace,omitempty"`
	// Object is the decided object's id.
	Object string `json:"object"`
	// Action is the chosen decision: "hit", "bypass", or "load" — or
	// "failed" for a leg that could not be served at all because its
	// site was unavailable and the object was not cached. Failed
	// records carry zero Yield and WANCost (nothing was delivered,
	// nothing was charged), keeping Σ ledger yields equal to D_A.
	Action string `json:"action"`
	// Stale marks a forced serve-from-cache: the owning site was
	// unavailable, so the cached copy was served without any freshness
	// guarantee.
	Stale bool `json:"stale,omitempty"`
	// Yield is the realized yield of the access in bytes.
	Yield int64 `json:"yield"`
	// WANCost is the WAN traffic the decision charged: 0 for a hit,
	// the cost-scaled yield for a bypass, the fetch cost for a load.
	WANCost int64 `json:"wan_cost"`
	// Size is the object's size s_i in bytes.
	Size int64 `json:"size"`
	// FetchCost is the object's load cost f_i in bytes.
	FetchCost int64 `json:"fetch_cost"`
	// RP is the object's measured in-cache rate profile (eq. 3) — the
	// realized savings rate — at decision time; meaningful on hits and
	// for eviction comparisons.
	RP float64 `json:"rp,omitempty"`
	// LAR is the candidate's load-adjusted rate (eqs. 4-6) — the
	// predicted savings rate had it been loaded; meaningful on
	// bypass/load decisions of profile-driven policies.
	LAR float64 `json:"lar,omitempty"`
	// BYU is the ski-rental accumulator normalized by object size (the
	// paper's byte-yield-utility accumulator of Figure 2); meaningful
	// for online-by.
	BYU float64 `json:"byu,omitempty"`
	// VictimRP is the best (maximum) rate profile among the would-be
	// eviction victims the candidate was compared against.
	VictimRP float64 `json:"victim_rp,omitempty"`
	// Episodes counts the object's completed out-of-cache episodes.
	Episodes int64 `json:"episodes,omitempty"`
	// EpisodePhase is "open" while the object is inside an episode
	// burst, "closed" otherwise.
	EpisodePhase string `json:"episode_phase,omitempty"`
	// Reason is a compact code naming the rule that fired (see the
	// core package's Reason* constants).
	Reason string `json:"reason,omitempty"`
}

// Ledger is the bounded decision ring. Construct with New; nil is a
// valid no-op ledger. It is not safe for concurrent use.
type Ledger struct {
	sink func(DecisionRecord) // set before recording starts; nil = ring only

	ring []DecisionRecord // record seq lives at ring[(seq-1)%len(ring)]
	seq  uint64           // records ever written
	sunk uint64           // the last record the sink has
}

// New returns a ledger retaining the most recent n records (n is
// clamped to at least 1).
func New(n int) *Ledger {
	if n < 1 {
		n = 1
	}
	return &Ledger{ring: make([]DecisionRecord, n)}
}

// SetSink attaches a sink that receives every record written from now
// on, in addition to the ring (e.g. an obs.JSONL's Append): each once,
// in Seq order, after it is filled and before its slot is reused, and at
// the latest at the Flush after it. It is called by the ledger's writer,
// so it must not call back into its Ledger. Call before recording
// starts; the sink's cost lands on the recording path.
func (l *Ledger) SetSink(s func(DecisionRecord)) {
	if l == nil {
		return
	}
	l.sink, l.sunk = s, l.seq
}

// Cap returns the ring capacity (0 on a nil ledger).
func (l *Ledger) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.ring)
}

// Count returns the total number of records ever written (0 on a nil
// ledger); records older than Count-Cap have been overwritten.
func (l *Ledger) Count() uint64 {
	if l == nil {
		return 0
	}
	return l.seq
}

// Next returns the next record: its slot in the ring, overwriting the
// oldest record when the ring is full, zeroed but for its Seq. The caller
// fills it in place before the next Next or Flush. Nil on a nil ledger.
func (l *Ledger) Next() *DecisionRecord {
	if l == nil {
		return nil
	}
	n := uint64(len(l.ring))
	if l.sink != nil && l.seq-l.sunk >= n {
		// The slot holds a record the sink has not had yet.
		l.sinkThrough(l.seq + 1 - n)
	}
	l.seq++
	rec := &l.ring[(l.seq-1)%n]
	*rec = DecisionRecord{Seq: l.seq}
	return rec
}

// Flush hands the sink, in order, every record it has not had. No-op on
// a nil ledger or without a sink.
func (l *Ledger) Flush() {
	if l == nil || l.sink == nil {
		return
	}
	l.sinkThrough(l.seq)
}

// sinkThrough hands the sink the records up to seq that it has not had.
func (l *Ledger) sinkThrough(seq uint64) {
	n := uint64(len(l.ring))
	for ; l.sunk < seq; l.sunk++ {
		l.sink(l.ring[l.sunk%n])
	}
}

// Snapshot returns a copy of the retained records, oldest first. Nil on
// a nil or empty ledger.
func (l *Ledger) Snapshot() []DecisionRecord {
	if l == nil || l.seq == 0 {
		return nil
	}
	n := uint64(len(l.ring))
	lo := uint64(1)
	if l.seq > n {
		lo = l.seq - n + 1
	}
	out := make([]DecisionRecord, 0, l.seq-lo+1)
	for s := lo; s <= l.seq; s++ {
		out = append(out, l.ring[(s-1)%n])
	}
	return out
}

// Query selects records. Zero fields match everything.
type Query struct {
	// Object matches the record's object id exactly.
	Object string
	// Action matches "hit", "bypass", "load", or "failed".
	Action string
	// Trace matches the record's trace id.
	Trace string
	// Limit keeps only the most recent N matches (0 = all).
	Limit int
}

// Match reports whether one record satisfies the query's filters
// (Limit is applied by Select, not here).
func (q Query) Match(r *DecisionRecord) bool {
	return (q.Object == "" || r.Object == q.Object) &&
		(q.Action == "" || r.Action == q.Action) &&
		(q.Trace == "" || r.Trace == q.Trace)
}

// Select returns the retained records that match q, oldest first,
// trimmed to the most recent q.Limit. It walks the ring from the newest
// record and copies only what it returns, so a limited scrape holds its
// owner's lock for its matches, not for the ring.
func (l *Ledger) Select(q Query) []DecisionRecord {
	if l == nil {
		return nil
	}
	n := uint64(len(l.ring))
	var out []DecisionRecord
	for s := l.seq; s > 0 && s+n > l.seq && (q.Limit <= 0 || len(out) < q.Limit); s-- {
		if r := &l.ring[(s-1)%n]; q.Match(r) {
			out = append(out, *r)
		}
	}
	slices.Reverse(out)
	return out
}

// ObjectRegret aggregates one object's ledger records against its
// per-object offline bound.
type ObjectRegret struct {
	// Object is the object id.
	Object string `json:"object"`
	// Accesses counts the object's records.
	Accesses int64 `json:"accesses"`
	// RealizedWAN is the WAN traffic the policy actually charged.
	RealizedWAN int64 `json:"realized_wan"`
	// Bound is the object's offline ski-rental bound ignoring cache
	// capacity: min(all-bypass cost, one fetch) — no policy can do
	// better for this object in isolation.
	Bound int64 `json:"bound"`
	// Regret is RealizedWAN − Bound: the WAN bytes an omniscient
	// per-object strategy would have saved.
	Regret int64 `json:"regret"`
}

// Regret computes per-object regret from ledger records, sorted by
// descending regret: the objects where the policy left the most WAN
// traffic on the table. The bound is the ski-rental optimum per
// object (rent forever vs. buy once), so regret is an upper estimate
// — a capacity-constrained OPT may not achieve it for every object
// simultaneously.
func Regret(recs []DecisionRecord) []ObjectRegret {
	type agg struct {
		accesses   int64
		realized   int64
		bypassCost int64 // what all-bypass would have paid
		fetch      int64
		loaded     bool
	}
	byObj := map[string]*agg{}
	for _, r := range recs {
		a := byObj[r.Object]
		if a == nil {
			a = &agg{fetch: r.FetchCost}
			byObj[r.Object] = a
		}
		a.accesses++
		a.realized += r.WANCost
		a.bypassCost += bypassEquivalent(r)
		if r.Action == "load" {
			a.loaded = true
		}
	}
	out := make([]ObjectRegret, 0, len(byObj))
	for obj, a := range byObj {
		bound := a.bypassCost
		if a.fetch > 0 && a.fetch < bound {
			bound = a.fetch
		}
		out = append(out, ObjectRegret{
			Object:      obj,
			Accesses:    a.accesses,
			RealizedWAN: a.realized,
			Bound:       bound,
			Regret:      a.realized - bound,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Regret != out[j].Regret {
			return out[i].Regret > out[j].Regret
		}
		return out[i].Object < out[j].Object
	})
	return out
}

// bypassEquivalent is the WAN cost the access would have incurred had
// it been bypassed: the record's own charge for a bypass, the
// cost-scaled yield for hits and loads.
func bypassEquivalent(r DecisionRecord) int64 {
	if r.Action == "bypass" {
		return r.WANCost
	}
	if r.Size > 0 && r.FetchCost != r.Size {
		return int64(float64(r.Yield) * float64(r.FetchCost) / float64(r.Size))
	}
	return r.Yield
}
