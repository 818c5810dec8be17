// Package workload synthesizes SDSS-like query traces matching the
// statistical properties the paper reports for its EDR and DR1 logs,
// and provides the analyzers behind the paper's workload
// characterization (query containment, schema locality).
//
// The real SDSS SkyQuery logs are not redistributable; the generator
// reproduces what the cache algorithms actually see — the per-query
// (object, yield) stream — with the documented properties:
//
//   - query counts and total sequence cost matched to the paper
//     (27,663 queries ≈ 1216.94 GB for EDR; 24,567 ≈ 1980.4 GB for
//     DR1), calibrated by binary search on a selectivity scale;
//   - a query-class mix of range scans, spatial region searches,
//     identity lookups, key joins, and aggregates, as the paper
//     describes ("range queries, spatial searches, identity queries,
//     and aggregate queries"), plus a few log-self queries that
//     preprocessing removes;
//   - schema locality: a small popular subset of columns/tables
//     dominates, with slow episodic drift (Figures 5–6);
//   - essentially no query containment: identity lookups rarely
//     repeat an object identifier (Figure 4).
//
// Generation is deterministic for a given profile.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"bypassyield/internal/catalog"
)

// Class tags a query class in generated traces.
const (
	ClassRange     = "range"
	ClassSpatial   = "spatial"
	ClassIdentity  = "identity"
	ClassJoin      = "join"
	ClassAggregate = "aggregate"
	// ClassBulk tags whole-chunk extracts: wide projections over most
	// or all of a table. The paper's traffic figures (≈1200 GB through
	// a ≈700 MB database in ≈27k queries) imply such dumps carry most
	// of the bytes; they are what makes "move the program to the data"
	// economics interesting.
	ClassBulk = "bulk"
	// ClassCampaign tags burst traffic against a temporarily hot cold
	// table — a research group batch-processing, say, the neighbors
	// table for a stretch of the trace. Campaigns are what make cache
	// contents turn over (the paper's fetch costs are many multiples
	// of the database size, so its cache churned continually) and are
	// the bursts its episode heuristics exist for.
	ClassCampaign = "campaign"
)

// Mix sets the class proportions of a profile; they need not sum to 1
// (they are normalized).
type Mix struct {
	Range     float64 `json:"range,omitempty"`
	Spatial   float64 `json:"spatial,omitempty"`
	Identity  float64 `json:"identity,omitempty"`
	Join      float64 `json:"join,omitempty"`
	Aggregate float64 `json:"aggregate,omitempty"`
	Bulk      float64 `json:"bulk,omitempty"`
}

func (m Mix) normalized() Mix {
	s := m.Range + m.Spatial + m.Identity + m.Join + m.Aggregate + m.Bulk
	if s <= 0 {
		return Mix{Range: 1}
	}
	return Mix{m.Range / s, m.Spatial / s, m.Identity / s, m.Join / s, m.Aggregate / s, m.Bulk / s}
}

// Profile parameterizes trace generation.
type Profile struct {
	// Name labels the trace ("edr", "dr1").
	Name string
	// Schema is the release the queries run against.
	Schema *catalog.Schema
	// Queries is the number of science queries (log-self queries are
	// added on top and later removed by preprocessing).
	Queries int
	// TargetSequenceCost is the desired total yield in bytes; the
	// generator calibrates selectivities to land within
	// CalibrationTol of it. Zero disables calibration.
	TargetSequenceCost int64
	// CalibrationTol is the acceptable relative error (default 0.02).
	CalibrationTol float64
	// Seed drives all randomness.
	Seed int64
	// Mix sets the query-class proportions; the zero value selects
	// the default mix.
	Mix Mix
	// LogQueries is the number of log-self queries interleaved
	// (default 0).
	LogQueries int
	// PopularColumns bounds the hot column pool per table (default 12
	// for the photometric table, scaled for others).
	PopularColumns int
	// DriftEvery shifts one pool member every N queries (default
	// 2500), producing the episodic locality of Figures 5–6.
	DriftEvery int
	// IDReuseProb is the probability an identity query repeats a
	// recently seen object identifier (default 0.05 — low, so query
	// caching stays unattractive as in Figure 4).
	IDReuseProb float64
	// CampaignEvery is the mean gap, in science queries, between
	// campaign starts (default 1100); CampaignLen is a campaign's
	// duration (default 500). During a campaign roughly half the
	// queries hit the campaign's cold table with substantial yields.
	CampaignEvery int
	CampaignLen   int
	// ZipfS is the exponent of the Zipf popularity ranking used when
	// drawing from the hot column pools (default 0.9, the paper-era
	// mix). Larger values skew references harder onto the top-ranked
	// objects — the heavy-tailed popularity the ESnet in-network-cache
	// access studies report.
	ZipfS float64
	// SizeShape, when set, multiplies every calibrated range-predicate
	// width by a heavy-tailed draw, shaping the yield-size distribution
	// (lognormal or Pareto) beyond what the class mix alone produces.
	// Nil leaves the generator byte-for-byte identical to the paper
	// profiles: no extra randomness is consumed.
	SizeShape *SizeShape
}

// SizeShape is a heavy-tailed multiplier distribution for predicate
// widths: "lognormal" (parameters Mu, Sigma of the underlying normal)
// or "pareto" (shape Alpha ≥ tail exponent, scale Min > 0). Draws are
// clamped to [0, MaxFactor] (default 8) so a single tail sample cannot
// blow a query up to the full table.
type SizeShape struct {
	Dist      string  `json:"dist"`
	Mu        float64 `json:"mu,omitempty"`
	Sigma     float64 `json:"sigma,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	Min       float64 `json:"min,omitempty"`
	MaxFactor float64 `json:"max_factor,omitempty"`
}

// Validate rejects unusable shapes.
func (s *SizeShape) Validate() error {
	if s == nil {
		return nil
	}
	switch s.Dist {
	case "lognormal":
		if s.Sigma < 0 {
			return fmt.Errorf("workload: lognormal sigma %v < 0", s.Sigma)
		}
	case "pareto":
		if s.Alpha <= 0 {
			return fmt.Errorf("workload: pareto alpha %v ≤ 0", s.Alpha)
		}
		if s.Min < 0 {
			return fmt.Errorf("workload: pareto min %v < 0", s.Min)
		}
	default:
		return fmt.Errorf("workload: unknown size distribution %q (have lognormal, pareto)", s.Dist)
	}
	return nil
}

// sample draws one width multiplier.
func (s *SizeShape) sample(rng *rand.Rand) float64 {
	if s == nil {
		return 1
	}
	maxf := s.MaxFactor
	if maxf <= 0 {
		maxf = 8
	}
	var v float64
	switch s.Dist {
	case "lognormal":
		v = math.Exp(s.Mu + s.Sigma*rng.NormFloat64())
	case "pareto":
		min := s.Min
		if min == 0 {
			min = 0.25
		}
		// Inverse-CDF draw: min / U^{1/alpha}.
		u := rng.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		v = min / math.Pow(u, 1/s.Alpha)
	default:
		v = 1
	}
	if v > maxf {
		v = maxf
	}
	return v
}

func (p *Profile) fill() {
	if p.CalibrationTol == 0 {
		p.CalibrationTol = 0.02
	}
	if p.Mix == (Mix{}) {
		// Heavy on scans and dumps: the paper's traffic totals
		// (≈1200 GB over ≈27k queries against a ≈700 MB release) mean
		// the average query moves tens of megabytes, so extract-style
		// queries dominate the byte volume while identity/aggregate
		// queries dominate nothing but the count.
		p.Mix = Mix{Range: 0.32, Spatial: 0.17, Identity: 0.10, Join: 0.08, Aggregate: 0.05, Bulk: 0.28}
	}
	p.Mix = p.Mix.normalized()
	if p.PopularColumns == 0 {
		p.PopularColumns = 12
	}
	if p.DriftEvery == 0 {
		p.DriftEvery = 2500
	}
	if p.IDReuseProb == 0 {
		p.IDReuseProb = 0.05
	}
	if p.CampaignEvery == 0 {
		p.CampaignEvery = 1100
	}
	if p.CampaignLen == 0 {
		p.CampaignLen = 500
	}
}

// EDRProfile returns the profile matching the paper's EDR trace:
// 27,663 queries with a sequence cost of 1216.94 GB.
func EDRProfile() Profile {
	return Profile{
		Name:               "edr",
		Schema:             catalog.EDR(),
		Queries:            27663,
		TargetSequenceCost: gb(1216.94),
		Seed:               1001,
		LogQueries:         80,
	}
}

// DR1Profile returns the profile matching the paper's DR1 trace:
// 24,567 queries with a sequence cost of 1980.4 GB.
func DR1Profile() Profile {
	return Profile{
		Name:               "dr1",
		Schema:             catalog.DR1(),
		Queries:            24567,
		TargetSequenceCost: gb(1980.4),
		Seed:               2002,
		LogQueries:         80,
		// DR1 leans more on joins and spatial searches (a later,
		// more spectroscopically complete release).
		Mix: Mix{Range: 0.31, Spatial: 0.20, Identity: 0.09, Join: 0.10, Aggregate: 0.06, Bulk: 0.24},
	}
}

// ReleaseProfile returns the profile of the release named "edr" or
// "dr1".
func ReleaseProfile(name string) (Profile, error) {
	switch name {
	case "edr":
		return EDRProfile(), nil
	case "dr1":
		return DR1Profile(), nil
	}
	return Profile{}, fmt.Errorf("unknown release %q (have edr, dr1)", name)
}

// gb converts gigabytes to bytes (decimal GB, as the paper reports).
func gb(v float64) int64 { return int64(v * 1e9) }

// ScaledProfile shrinks a profile for fast tests and benches: queries
// and sequence cost divide by factor.
func ScaledProfile(p Profile, factor int) Profile {
	if factor <= 1 {
		return p
	}
	p.Queries /= factor
	p.TargetSequenceCost /= int64(factor)
	p.LogQueries /= factor
	p.fill()
	for _, f := range []*int{&p.DriftEvery, &p.CampaignEvery, &p.CampaignLen} {
		*f /= factor
		if *f < 1 {
			*f = 1
		}
	}
	return p
}
