package workload

import (
	"fmt"
	"math/rand"

	"bypassyield/internal/catalog"
)

// Statement is one generated query ready to send over the wire.
type Statement struct {
	// SQL is the statement text (round-trips through the federation's
	// SQL grammar).
	SQL string
	// Class tags the query class (ClassRange, ClassSpatial, ...).
	Class string
}

// Stream is an unbounded, deterministic statement source over a
// profile: the same science-query generator that Generate runs, but
// demand-driven and without yield decomposition or calibration, so a
// live load harness (`by synth`) can draw statements at wire speed
// instead of materializing a whole trace up front.
//
// Streams never emit log-self queries (they reference a pseudo-table
// outside the release schema, so a live proxy cannot bind them) and
// run at selectivity scale 1; drift and campaign dynamics advance
// exactly as in Generate.
type Stream struct {
	g       *gen
	science int
}

// NewStream builds a statement stream for the profile. The profile's
// Seed fully determines the statement sequence.
func NewStream(p Profile) (*Stream, error) {
	p.fill()
	if p.Schema == nil {
		return nil, fmt.Errorf("workload: profile has no schema")
	}
	if err := p.Schema.Validate(); err != nil {
		return nil, err
	}
	if err := p.SizeShape.Validate(); err != nil {
		return nil, err
	}
	gn := &gen{
		p:      p,
		scale:  1,
		rng:    rand.New(rand.NewSource(p.Seed)),
		schema: p.Schema,
		pools:  make(map[string][]string),
	}
	gn.initPools()
	gn.raCenter = gn.rng.Float64() * 360
	gn.decCenter = gn.rng.Float64()*120 - 60
	gn.nextCamp = p.CampaignEvery/2 + gn.rng.Intn(p.CampaignEvery)
	return &Stream{g: gn}, nil
}

// Schema returns the release the stream's statements run against.
func (s *Stream) Schema() *catalog.Schema { return s.g.schema }

// Next generates the next statement. It allocates one thing, the
// statement's text: the generator builds every statement into the same
// AST and renders it before the next draw.
func (s *Stream) Next() Statement {
	s.science++
	if s.science%s.g.p.DriftEvery == 0 {
		s.g.drift()
	}
	s.g.tickCampaign(s.science)
	stmt, class := s.g.nextStatement()
	return Statement{SQL: stmt.String(), Class: class}
}
