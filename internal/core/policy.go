package core

import (
	"fmt"

	"bypassyield/internal/obs/ledger"
)

// Policy is a cache-management algorithm in the bypass-yield model.
// The simulator presents each access in trace order; the policy
// returns the decision and mutates its internal cache state
// accordingly. Implementations are single-goroutine: the simulator
// never calls a policy concurrently.
//
// An object larger than the whole cache (Size > Capacity()) is never
// cached: Access returns Bypass for it whatever the yield, and Contains
// never reports it. Every policy NewPolicyByName builds keeps this
// (TestOversizeIsAlwaysBypassed), and the mediator relies on it: a
// statement all of whose objects are that large is decided with the
// yield its site answers with, without being executed first
// (federation.Ship).
//
// A cached object is served from the cache: Access returns Hit for an
// object Contains reports, never Load or Bypass. A Load caches the
// object, and it stays cached until the policy evicts it. So no policy
// decides Load for an object it holds, and each Load is one fetch of
// the object: the proxy carries exactly the loads it is charged for
// (TestLoadsOnlyWhatItDoesNotHold).
type Policy interface {
	// Name identifies the policy in reports ("rate-profile",
	// "online-by", ...).
	Name() string
	// Access presents one access at time t (the query sequence
	// number). The returned decision determines the traffic charged
	// by the simulator: Hit → 0 WAN, Bypass → obj.BypassCost(yield),
	// Load → obj.FetchCost (and the access is then served in cache).
	Access(t int64, obj Object, yield int64) Decision
	// Used reports the bytes currently occupied in the cache.
	Used() int64
	// Capacity reports the cache size in bytes.
	Capacity() int64
	// Contains reports whether obj is currently cached, finding its
	// state by its slot, as Access does.
	Contains(obj Object) bool
	// Evictions reports the cumulative number of evictions.
	Evictions() int64
}

// ContentLister is an optional interface policies implement to expose
// their current cache contents for observability (the proxy's stats
// endpoint reports them).
type ContentLister interface {
	// Contents returns the cached object ids in unspecified order.
	Contents() []ObjectID
}

// Result is the outcome of simulating one policy over one trace.
type Result struct {
	// Policy is the policy's name.
	Policy string
	// Acct holds the aggregate flow accounting.
	Acct Accounting
	// Curve samples cumulative WAN bytes after every CurveStride
	// requests (index 0 is after the first stride). The final total
	// is always appended so Curve never under-reports.
	Curve []int64
	// CurveStride is the sampling interval, in requests.
	CurveStride int64
}

// Simulator drives a policy over a trace with full flow accounting,
// through the Decider the live mediator decides with.
type Simulator struct {
	// Policy is the algorithm under test.
	Policy Policy
	// Objects resolves accesses to object descriptors. Every access's
	// ObjectID must be present.
	Objects map[ObjectID]Object
	// CurveStride is the cumulative-cost sampling interval in
	// requests; 0 disables curve collection.
	CurveStride int64
	// Ledger, when non-nil, receives one DecisionRecord per access
	// explaining the decision (see DecisionRecordFor).
	Ledger *ledger.Ledger
}

// Run simulates the trace and returns the result. The policy keeps its
// state across runs: a multi-trace run calls Run repeatedly, and an
// independent run builds a fresh policy.
func (s *Simulator) Run(reqs []Request) (*Result, error) {
	res := &Result{Policy: s.Policy.Name(), CurveStride: s.CurveStride}
	d := NewDecider(s.Policy, nil, s.Ledger)
	for i, req := range reqs {
		d.Begin(req.Seq, "")
		for _, acc := range req.Accesses {
			obj, ok := s.Objects[acc.Object]
			if !ok {
				d.End()
				return nil, &UnknownObjectError{ID: acc.Object, Seq: req.Seq}
			}
			if _, err := d.Access(obj, acc.Yield); err != nil {
				d.End()
				return nil, err
			}
		}
		d.End()
		if s.CurveStride > 0 && int64(i+1)%s.CurveStride == 0 {
			res.Curve = append(res.Curve, d.Acct.WANBytes())
		}
	}
	res.Acct = d.Acct
	if s.CurveStride > 0 && (len(res.Curve) == 0 || res.Curve[len(res.Curve)-1] != res.Acct.WANBytes()) {
		res.Curve = append(res.Curve, res.Acct.WANBytes())
	}
	return res, nil
}

// UnknownObjectError reports an access to an object absent from the
// simulator's object map.
type UnknownObjectError struct {
	ID  ObjectID
	Seq int64
}

func (e *UnknownObjectError) Error() string {
	return fmt.Sprintf("core: access at seq %d references unknown object %s", e.Seq, e.ID)
}

// BadDecisionError reports a policy returning an out-of-range decision.
type BadDecisionError struct {
	Policy   string
	Decision Decision
}

func (e *BadDecisionError) Error() string {
	return fmt.Sprintf("core: policy %s returned invalid decision %s", e.Policy, e.Decision)
}
