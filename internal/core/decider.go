package core

import (
	"time"

	"bypassyield/internal/obs/ledger"
)

// Decider is the decision loop of a bypass-yield cache: one policy,
// one flow accounting, and the observers of both (the decision ledger,
// and telemetry for what is not accounting: latency, degraded-mode
// events, episode churn). The reference Simulator and the live mediator
// both run their queries through it, so the two cannot drift.
//
// The work splits by what must be per access and what need not be.
// Per access — Access, or Forced and Failed when a site is down — the
// policy decides, the Figure-1 flows are charged and one ledger record
// is filled from the policy's explanation (it is overwritten by the
// next decision) straight into its slot in the ledger's ring. Per query — End — the query's
// accounting is added to Acct and the ledger's sink is handed the
// query's records. Between Begin and End Acct is one query behind the
// policy and the ledger; a caller that serves scrapes concurrently holds
// its lock across the pair, as the mediator does, and reads Acct and the
// ledger under it: the registry mirrors Acct at scrape time
// (Telemetry.Mirror), not here.
//
// A Decider is sequential state, like the policy it drives.
type Decider struct {
	// Acct is the flow accounting of every query ended so far.
	Acct Accounting

	policy    Policy
	name      string   // the policy's
	explained *Explain // where the policy keeps its explanation (SelfExplainer), nil for none
	tel       *Telemetry
	ledger    *ledger.Ledger
	evictions int64 // the policy's evictions already counted in Acct

	// The query in progress, whose records the ledger takes as they are
	// decided.
	t       int64
	trace   string
	q       Accounting
	start   time.Duration // Begin's clock reading, since clockBase
	decided int           // accesses the policy has decided since
}

// clockBase anchors the two readings that time a query's decide loop:
// time.Since(clockBase) reads the monotonic clock alone, where time.Now
// reads the wall clock too.
var clockBase = time.Now()

// NewDecider assembles a decision loop around policy p (NoCache
// bypasses every access). Every observer may be nil: an absent one
// costs nothing. The telemetry is attached to the policy when it
// publishes churn of its own.
func NewDecider(p Policy, tel *Telemetry, led *ledger.Ledger) *Decider {
	d := &Decider{policy: p, name: p.Name(), evictions: p.Evictions(), tel: tel, ledger: led}
	if se, ok := p.(SelfExplainer); ok {
		d.explained = se.LastExplain()
	}
	if ts, ok := p.(TelemetrySetter); ok && tel != nil {
		ts.SetTelemetry(tel)
	}
	return d
}

// Begin opens the query at time t (the policy's clock) with the
// distributed trace id its ledger records carry: every Begin is followed
// by End.
func (d *Decider) Begin(t int64, trace string) {
	d.t, d.trace = t, trace
	d.q = Accounting{Queries: 1}
	d.decided = 0
	if d.tel != nil {
		d.start = time.Since(clockBase)
	}
}

// Access presents one access of the open query to the policy and
// charges the decision. core.decide_seconds gets its observation per
// call at End, where the loop is timed as a whole, not around each call.
func (d *Decider) Access(obj Object, yield int64) (Decision, error) {
	dec := d.policy.Access(d.t, obj, yield)
	d.decided++
	_, err := d.charge(obj, yield, dec)
	return dec, err
}

// Forced charges a serve-from-cache the policy did not choose: the
// object's site is unavailable and the cached (possibly stale) copy is
// served as a hit. The policy is not consulted — outage traffic must
// not distort what it has learned — and the ledger record carries the
// reason and Stale.
func (d *Decider) Forced(obj Object, yield int64, reason string) error {
	rec, err := d.charge(obj, yield, Hit)
	if err != nil {
		return err
	}
	d.tel.RecordForced(obj.Site, yield)
	if rec != nil {
		rec.Reason = reason
		rec.Stale = true
	}
	return nil
}

// Failed notes an access dropped entirely: site unavailable, object
// not cached. Nothing is delivered and nothing charged; the ledger
// records action "failed" with zero yield and WAN cost, so Σ ledger
// yields stays D_A.
func (d *Decider) Failed(obj Object, reason string) {
	d.tel.RecordFailedLeg(obj.Site)
	if rec := d.ledger.Next(); rec != nil {
		rec.T = d.t
		rec.Policy = d.name
		rec.Trace = d.trace
		rec.Object = string(obj.ID)
		rec.Action = ReasonFailedLeg
		rec.Size = obj.Size
		rec.FetchCost = obj.FetchCost
		rec.Reason = reason
	}
}

// charge applies a decision to the open query: flows and the ledger
// record (returned for the caller to annotate; nil without a
// ledger).
func (d *Decider) charge(obj Object, yield int64, dec Decision) (*ledger.DecisionRecord, error) {
	if err := Account(&d.q, obj, yield, dec); err != nil {
		return nil, &BadDecisionError{Policy: d.name, Decision: dec}
	}
	rec := d.ledger.Next()
	if rec != nil {
		fillRecord(rec, d.t, d.name, d.explained, d.trace, obj, yield, dec)
	}
	return rec, nil
}

// End closes the open query with the one bookkeeping flush: its flows
// join Acct, the ledger's sink gets its records, and evictions the
// policy made are counted.
func (d *Decider) End() {
	if d.tel != nil {
		d.tel.ObserveDecide(time.Since(clockBase)-d.start, d.decided)
	}
	d.Acct.Add(d.q)
	d.ledger.Flush()
	d.countEvictions()
}

// Replay charges one access decided before a restart, outside any
// query: the recorded decision's flows reach Acct. The ledger restarts
// empty and sees nothing of it; the caller has already let the policy
// re-decide the access.
func (d *Decider) Replay(obj Object, yield int64, recorded Decision) error {
	var q Accounting
	if err := Account(&q, obj, yield, recorded); err != nil {
		return err
	}
	d.Acct.Add(q)
	d.countEvictions()
	return nil
}

// Restore adopts the accounting of a restored snapshot, the restored
// policy's evictions included: their count is the policy's own,
// whatever a carries (0, when written before they were counted).
func (d *Decider) Restore(a Accounting) {
	d.Acct = a
	d.evictions = d.policy.Evictions()
	d.Acct.Evictions = d.evictions
}

// countEvictions adds to Acct the evictions the policy has made since
// it was last asked.
func (d *Decider) countEvictions() {
	if ev := d.policy.Evictions(); ev > d.evictions {
		d.Acct.Evictions += ev - d.evictions
		d.evictions = ev
	}
}
