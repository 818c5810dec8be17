// Package hierarchy extends the bypass-yield model to chains of
// caches — the future work Section 3 of the paper defers ("At this
// time, we do not consider hierarchies of caches or coordinated
// caching within hierarchies").
//
// A hierarchy places caching tiers between the client and the
// federation's servers: tier 0 sits on the client's LAN, higher tiers
// sit progressively closer to the servers, and each link between
// adjacent tiers (and between the outermost tier and the servers)
// carries a per-byte cost weight. The paper's single mediator cache
// is the one-tier special case.
//
// Per access, tiers are consulted from the client outward; each
// tier's bypass-yield policy decides independently (no coordination,
// matching the paper's per-cache independence argument). A hit or
// load at tier i serves the access there: the result crosses only the
// links inside tier i, and a load's fetch traffic crosses the links
// between tier i and the nearest outer holder of the object (or the
// servers). Total cost is Σ link-bytes × link-weight.
package hierarchy

import (
	"fmt"

	"bypassyield/internal/core"
)

// Config assembles a hierarchy simulation.
type Config struct {
	// Policies lists the tier policies from the client outward.
	Policies []core.Policy
	// LinkWeights[i] is the per-byte cost of the link on the server
	// side of tier i; the last entry is the tier↔servers link. Must
	// have the same length as Policies.
	LinkWeights []float64
	// Objects resolves object descriptors (sizes, sites). Fetch costs
	// seen by each tier are derived per tier from the link weights.
	Objects map[core.ObjectID]core.Object
}

// Result is the outcome of a hierarchy run.
type Result struct {
	// LinkBytes[i] counts the bytes that crossed link i.
	LinkBytes []int64
	// Cost is Σ LinkBytes[i] × LinkWeights[i].
	Cost float64
	// TierAccts holds per-tier decision accounting (hit/bypass/load
	// counts; flow fields reflect tier-local views).
	TierAccts []core.Accounting
	// ServedAt[i] counts accesses served at tier i; the last slot
	// counts accesses served by the servers.
	ServedAt []int64
}

// Sim drives a cache hierarchy over a request trace.
type Sim struct {
	cfg Config
	// outerCost[i] is the per-byte cost from tier i to the servers:
	// Σ LinkWeights[i:].
	outerCost []float64
	// innerCost[i] is the per-byte cost from tier i to the client:
	// Σ LinkWeights[:i].
	innerCost []float64
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Sim, error) {
	if len(cfg.Policies) == 0 {
		return nil, fmt.Errorf("hierarchy: no tiers")
	}
	if len(cfg.LinkWeights) != len(cfg.Policies) {
		return nil, fmt.Errorf("hierarchy: %d link weights for %d tiers",
			len(cfg.LinkWeights), len(cfg.Policies))
	}
	for i, w := range cfg.LinkWeights {
		if w < 0 {
			return nil, fmt.Errorf("hierarchy: negative weight on link %d", i)
		}
	}
	s := &Sim{cfg: cfg}
	n := len(cfg.Policies)
	s.outerCost = make([]float64, n)
	sum := 0.0
	for i := n - 1; i >= 0; i-- {
		sum += cfg.LinkWeights[i]
		s.outerCost[i] = sum
	}
	s.innerCost = make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		s.innerCost[i] = acc
		acc += cfg.LinkWeights[i]
	}
	return s, nil
}

// tierObject rewrites an object's fetch cost to tier i's view: the
// byte cost of pulling it from the servers across the outer links.
func (s *Sim) tierObject(i int, obj core.Object) core.Object {
	fc := int64(float64(obj.Size) * s.outerCost[i])
	if fc < 1 {
		fc = 1
	}
	obj.FetchCost = fc
	return obj
}

// Run simulates the trace.
func (s *Sim) Run(reqs []core.Request) (*Result, error) {
	n := len(s.cfg.Policies)
	res := &Result{
		LinkBytes: make([]int64, n),
		TierAccts: make([]core.Accounting, n),
		ServedAt:  make([]int64, n+1),
	}
	for _, req := range reqs {
		for _, acc := range req.Accesses {
			obj, ok := s.cfg.Objects[acc.Object]
			if !ok {
				return nil, &core.UnknownObjectError{ID: acc.Object, Seq: req.Seq}
			}
			if err := s.access(req.Seq, obj, acc.Yield, res); err != nil {
				return nil, err
			}
		}
	}
	for i, b := range res.LinkBytes {
		res.Cost += float64(b) * s.cfg.LinkWeights[i]
	}
	return res, nil
}

// access routes one access through the tiers.
func (s *Sim) access(t int64, obj core.Object, yield int64, res *Result) error {
	n := len(s.cfg.Policies)
	for i := 0; i < n; i++ {
		tobj := s.tierObject(i, obj)
		d := s.cfg.Policies[i].Access(t, tobj, yield)
		if err := core.Account(&res.TierAccts[i], tobj, yield, d); err != nil {
			return err
		}
		switch d {
		case core.Hit:
			s.chargeResult(res, yield, i)
			res.ServedAt[i]++
			return nil
		case core.Load:
			// The fetch crosses links from tier i to the nearest
			// outer tier holding the object, or the servers.
			src := n // server by default
			for j := i + 1; j < n; j++ {
				if s.cfg.Policies[j].Contains(obj) {
					src = j
					break
				}
			}
			for l := i; l < src; l++ {
				res.LinkBytes[l] += obj.Size
			}
			s.chargeResult(res, yield, i)
			res.ServedAt[i]++
			return nil
		case core.Bypass:
			// Fall through to the next tier.
		default:
			return &core.BadDecisionError{Policy: s.cfg.Policies[i].Name(), Decision: d}
		}
	}
	// Served by the federation's servers: the result crosses every
	// link.
	s.chargeResult(res, yield, n)
	res.ServedAt[n]++
	return nil
}

// chargeResult bills the result bytes across the links between the
// serving point and the client (links 0..served-1).
func (s *Sim) chargeResult(res *Result, yield int64, served int) {
	for l := 0; l < served; l++ {
		res.LinkBytes[l] += yield
	}
}
