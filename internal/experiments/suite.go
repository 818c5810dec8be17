package experiments

import (
	"fmt"
	"math/rand"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/trace"
	"bypassyield/internal/workload"
)

// Suite runs the paper's experiments over synthesized EDR and DR1
// traces. Traces are generated once per (release, granularity) and
// cached across experiments; all randomness is seeded, so a Suite is
// fully reproducible.
type Suite struct {
	// Scale divides trace length and sequence-cost targets for fast
	// runs; 1 reproduces the paper's full workload sizes.
	Scale int
	// CachePct is the cache size as a fraction of the database for
	// the fixed-size experiments (Figures 7–8, Tables 1–2). The paper
	// does not state the cache size used for those; we default to
	// 0.4, comfortably past the 20–30% effectiveness threshold its
	// cache-size sweep establishes (Figures 9–10 regenerate that
	// sweep).
	CachePct float64
	// Ledger, when set, receives one DecisionRecord per simulated
	// access, across every simulation the suite runs. Simulations
	// share the ring; attach a sink (Ledger.SetSink) to separate or persist
	// them.
	Ledger *ledger.Ledger

	traces map[string][]core.Request
	raw    map[string][]trace.Record
	seqs   map[string]int64
}

// NewSuite builds a suite at the given scale (≤ 1 means full scale).
func NewSuite(scale int) *Suite {
	if scale < 1 {
		scale = 1
	}
	return &Suite{
		Scale:    scale,
		CachePct: 0.4,
		traces:   make(map[string][]core.Request),
		raw:      make(map[string][]trace.Record),
		seqs:     make(map[string]int64),
	}
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	return []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "tab1", "tab2"}
}

// Run dispatches one experiment by id.
func (s *Suite) Run(id string) (*Table, error) {
	switch id {
	case "fig4":
		return s.Fig4()
	case "fig5":
		return s.Fig5()
	case "fig6":
		return s.Fig6()
	case "fig7":
		return s.Fig7()
	case "fig8":
		return s.Fig8()
	case "fig9":
		return s.Fig9()
	case "fig10":
		return s.Fig10()
	case "tab1":
		return s.Tab1()
	case "tab2":
		return s.Tab2()
	default:
		if t, ok, err := s.runExtension(id); ok {
			return t, err
		}
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v and extensions %v)",
			id, IDs(), ExtensionIDs())
	}
}

// profile returns the scaled workload profile for a release.
func (s *Suite) profile(release string) (workload.Profile, error) {
	p, err := workload.ReleaseProfile(release)
	if err != nil {
		return p, fmt.Errorf("experiments: %w", err)
	}
	return workload.ScaledProfile(p, s.Scale), nil
}

// records returns the preprocessed trace records for a release at a
// granularity, generating and caching them on first use.
func (s *Suite) records(release string, g federation.Granularity) ([]trace.Record, error) {
	key := release + "/" + g.String()
	if recs, ok := s.raw[key]; ok {
		return recs, nil
	}
	p, err := s.profile(release)
	if err != nil {
		return nil, err
	}
	recs, err := workload.Generate(p, g)
	if err != nil {
		return nil, err
	}
	recs = trace.Preprocess(recs)
	s.raw[key] = recs
	s.seqs[key] = trace.SequenceCost(recs)
	return recs, nil
}

// requests returns simulator requests for a release/granularity.
func (s *Suite) requests(release string, g federation.Granularity) ([]core.Request, error) {
	key := release + "/" + g.String()
	if reqs, ok := s.traces[key]; ok {
		return reqs, nil
	}
	recs, err := s.records(release, g)
	if err != nil {
		return nil, err
	}
	reqs := trace.Requests(recs)
	s.traces[key] = reqs
	return reqs, nil
}

// objects returns the cacheable-object universe for a release.
func (s *Suite) objects(release string, g federation.Granularity) (map[core.ObjectID]core.Object, int64, error) {
	p, err := s.profile(release)
	if err != nil {
		return nil, 0, err
	}
	return federation.Objects(p.Schema, g, nil), p.Schema.TotalBytes(), nil
}

// policySet names the algorithms of the performance experiments.
type policySet struct {
	name string
	mk   func(capacity int64, reqs []core.Request, objs map[core.ObjectID]core.Object) core.Policy
}

// figureEpisodes is the episode configuration of every figure's
// Rate-Profile: idle horizon k = 60 rather than the paper's 1000. k must
// sit below the workload's burst cadence to separate episodes (the paper
// notes its parameters "have not been tuned carefully" and that results
// are robust to parameterization; its k = 1000 reflects its own trace's
// gaps). examples/policylab ablates k. core.NewPolicyByName leaves k at
// the paper's 1000, so byproxyd and the bench/ workloads run another
// Rate-Profile than the figures report (ROADMAP item 23).
var figureEpisodes = core.EpisodeConfig{K: 60}

// bypassYieldPolicies are the paper's three algorithms.
func bypassYieldPolicies() []policySet {
	return []policySet{
		{"Rate-Profile", func(c int64, _ []core.Request, _ map[core.ObjectID]core.Object) core.Policy {
			return core.NewRateProfile(core.RateProfileConfig{Capacity: c, Episodes: figureEpisodes})
		}},
		{"OnlineBY", func(c int64, _ []core.Request, _ map[core.ObjectID]core.Object) core.Policy {
			return core.NewOnlineBY(core.NewLandlord(c))
		}},
		{"SpaceEffBY", func(c int64, _ []core.Request, _ map[core.ObjectID]core.Object) core.Policy {
			return core.NewSpaceEffBY(core.NewLandlord(c), rand.NewSource(42))
		}},
	}
}

// comparatorPolicies are GDS (in-line) and static-optimal caching.
func comparatorPolicies() []policySet {
	return []policySet{
		{"GDS", func(c int64, _ []core.Request, _ map[core.ObjectID]core.Object) core.Policy {
			return core.NewGDS(c)
		}},
		{"Static", func(c int64, reqs []core.Request, objs map[core.ObjectID]core.Object) core.Policy {
			return core.PlanStatic(c, reqs, objs)
		}},
	}
}

// simulate runs one policy over a trace, recording into the suite's
// ledger when one is attached.
func (s *Suite) simulate(p core.Policy, reqs []core.Request, objs map[core.ObjectID]core.Object, stride int64) (*core.Result, error) {
	sim := &core.Simulator{Policy: p, Objects: objs, CurveStride: stride, Ledger: s.Ledger}
	return sim.Run(reqs)
}
