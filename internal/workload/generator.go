package workload

import (
	"fmt"
	"math"
	"math/rand"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/trace"
)

// Generate synthesizes a trace for the profile, decomposing yields at
// the given object granularity. The stream of statements is fully
// determined by the profile's seed; only predicate widths respond to
// the sequence-cost calibration, so calibration never changes which
// objects a query touches.
func Generate(p Profile, g federation.Granularity) ([]trace.Record, error) {
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
	if p.Queries <= 0 {
		return nil, fmt.Errorf("workload: profile has no queries")
	}

	scale := 1.0
	if p.TargetSequenceCost > 0 {
		lo, hi := 1e-4, 256.0
		target := float64(p.TargetSequenceCost)
		for i := 0; i < 48; i++ {
			scale = math.Sqrt(lo * hi) // geometric bisection
			total, err := runStream(p, scale, 0, nil)
			if err != nil {
				return nil, err
			}
			rel := (float64(total) - target) / target
			if math.Abs(rel) <= p.CalibrationTol/2 {
				break
			}
			if rel > 0 {
				hi = scale
			} else {
				lo = scale
			}
		}
	}
	var recs []trace.Record
	if _, err := runStream(p, scale, g, &recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// gen is the per-run generator state.
type gen struct {
	p      Profile
	scale  float64
	rng    *rand.Rand
	schema *catalog.Schema

	pools map[string][]string // hot columns per table, rank order

	raCenter, decCenter float64 // spatial drift walk

	idHistory []int64 // recent identity-query object ids

	campTable string // active campaign's cold table ("" when idle)
	campUntil int    // science-query count at which the campaign ends
	nextCamp  int    // science-query count of the next campaign start

	// zipfW[i] is the Zipf weight 1/(i+1)^s of rank i and zipfSum[n]
	// the total of the first n, added in rank order; both grow on
	// demand to the longest pool zipfPick has drawn from.
	zipfW, zipfSum []float64

	// stmt is the statement every builder writes, reset by newStmt:
	// its lists keep their memory from one draw to the next, and
	// groupBy, orderBy and rightCol are what its pointers point at. A
	// caller renders or binds it before the next draw.
	stmt     sqlparse.SelectStmt
	groupBy  sqlparse.ColRef
	orderBy  sqlparse.OrderSpec
	rightCol sqlparse.ColRef
	perm     []int             // randomProjection's permutation
	cands    []*catalog.Column // groupColumn's candidates
}

// runStream produces the full query stream at the given selectivity
// scale. When out is nil only the total sequence cost is computed
// (calibration mode); otherwise records with decomposed accesses are
// appended.
func runStream(p Profile, scale float64, g federation.Granularity, out *[]trace.Record) (int64, error) {
	gn := &gen{
		p:      p,
		scale:  scale,
		rng:    rand.New(rand.NewSource(p.Seed)),
		schema: p.Schema,
		pools:  make(map[string][]string),
	}
	gn.initPools()
	gn.raCenter = gn.rng.Float64() * 360
	gn.decCenter = gn.rng.Float64()*120 - 60
	gn.nextCamp = p.CampaignEvery/2 + gn.rng.Intn(p.CampaignEvery)

	// Pre-plan log-query positions so they do not consume the science
	// stream's randomness unevenly.
	logAt := make(map[int]bool, p.LogQueries)
	total := p.Queries + p.LogQueries
	for len(logAt) < p.LogQueries {
		logAt[gn.rng.Intn(total)] = true
	}

	var (
		seqCost int64
		b       engine.Bound // each statement is bound into it in turn
	)
	seq := int64(0)
	science := 0
	for i := 0; i < total; i++ {
		seq++
		if logAt[i] {
			// Built unconditionally: logRecord draws randomness, and
			// the calibration passes (out == nil) must consume the
			// generator's stream exactly like the final pass.
			rec := gn.logRecord(seq)
			if out != nil {
				*out = append(*out, rec)
			}
			continue
		}
		science++
		if science%p.DriftEvery == 0 {
			gn.drift()
		}
		gn.tickCampaign(science)
		stmt, class := gn.nextStatement()
		if err := b.Rebind(gn.schema, stmt); err != nil {
			return 0, fmt.Errorf("workload: generated unbindable query %q: %w", stmt.String(), err)
		}
		_, yield, err := engine.EstimateBound(&b)
		if err != nil {
			return 0, err
		}
		seqCost += yield
		if out != nil {
			rec := trace.Record{Seq: seq, SQL: stmt.String(), Class: class, Yield: yield}
			for _, a := range federation.Decompose(&b, gn.schema.Name, yield, g) {
				rec.Accesses = append(rec.Accesses, trace.Access{Object: string(a.Object), Yield: a.Yield})
			}
			*out = append(*out, rec)
		}
	}
	return seqCost, nil
}

// initPools builds the hot column pool per table: a small, popular
// subset (schema locality). The photometric table gets the full pool
// budget; smaller tables proportionally fewer.
func (g *gen) initPools() {
	for i := range g.schema.Tables {
		t := &g.schema.Tables[i]
		n := g.p.PopularColumns
		if t.Name != "photoobj" {
			n = g.p.PopularColumns / 2
		}
		if n > len(t.Columns) {
			n = len(t.Columns)
		}
		perm := g.permute(len(t.Columns))
		pool := make([]string, 0, n)
		// Always include the key and the spatial columns when present:
		// real SDSS workloads hammer objid/ra/dec.
		for _, must := range []string{"objid", "ra", "dec"} {
			if t.Column(must) != nil && len(pool) < n {
				pool = append(pool, must)
			}
		}
		for _, idx := range perm {
			if len(pool) >= n {
				break
			}
			name := t.Columns[idx].Name
			if !contains(pool, name) {
				pool = append(pool, name)
			}
		}
		g.pools[t.Name] = pool
	}
}

// drift replaces one non-essential pool member with a fresh column,
// shifting the hot set episodically.
func (g *gen) drift() {
	t := g.schema.Table("photoobj")
	if t == nil {
		return
	}
	pool := g.pools[t.Name]
	if len(pool) <= 3 {
		return
	}
	slot := 3 + g.rng.Intn(len(pool)-3) // keep objid/ra/dec
	for tries := 0; tries < 20; tries++ {
		cand := t.Columns[g.rng.Intn(len(t.Columns))].Name
		if !contains(pool, cand) {
			pool[slot] = cand
			return
		}
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// zipfPick selects an index in [0, n) with probability ∝ 1/(i+1)^s,
// where s is the profile's ZipfS (default 0.9). The weights and their
// total are the generator's table (growZipf), computed once per rank:
// the same float values a pick would sum and subtract afresh, in the
// same order, so every pick is what computing them per call would give.
func (g *gen) zipfPick(n int) int {
	if n <= 1 {
		return 0
	}
	g.growZipf(n)
	r := g.rng.Float64() * g.zipfSum[n]
	for i, w := range g.zipfW[:n] {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return n - 1
}

// growZipf extends the Zipf table to at least n ranks.
func (g *gen) growZipf(n int) {
	s := g.p.ZipfS
	if s == 0 {
		s = 0.9
	}
	if g.zipfSum == nil {
		g.zipfSum = []float64{0}
	}
	for i := len(g.zipfW); i < n; i++ {
		w := 1 / math.Pow(float64(i+1), s)
		g.zipfW = append(g.zipfW, w)
		g.zipfSum = append(g.zipfSum, g.zipfSum[i]+w)
	}
}

// tickCampaign advances the campaign state machine: campaigns start
// on a jittered cadence, pick a cold table, and run for CampaignLen
// science queries.
func (g *gen) tickCampaign(science int) {
	if g.campTable != "" && science >= g.campUntil {
		g.campTable = ""
	}
	if g.campTable == "" && science >= g.nextCamp {
		g.campTable = campaignTables[g.rng.Intn(len(campaignTables))]
		g.campUntil = science + g.p.CampaignLen
		g.nextCamp = science + g.p.CampaignEvery/2 + g.rng.Intn(g.p.CampaignEvery)
	}
}

// campaignQuery builds a burst query against the campaign table:
// moderate-selectivity scans with several columns, heavy enough that
// caching the table pays off for the campaign's duration.
func (g *gen) campaignQuery() *sqlparse.SelectStmt {
	t := g.schema.Table(g.campTable)
	stmt := g.newStmt(sqlparse.TableRef{Name: t.Name})
	if g.rng.Float64() < 0.25 {
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Star: true})
	} else {
		stmt.Items = g.pickProjection(stmt.Items, t.Name, 3+g.rng.Intn(3))
	}
	c := g.predColumn(t)
	stmt.Where = append(stmt.Where, g.rangePred(c, 0.08+0.3*g.rng.Float64()))
	return stmt
}

// nextStatement draws a query class and builds a statement into g.stmt.
func (g *gen) nextStatement() (*sqlparse.SelectStmt, string) {
	if g.campTable != "" && g.rng.Float64() < 0.5 {
		return g.campaignQuery(), ClassCampaign
	}
	r := g.rng.Float64()
	m := g.p.Mix
	switch {
	case r < m.Range:
		return g.rangeScan(), ClassRange
	case r < m.Range+m.Spatial:
		return g.spatialSearch(), ClassSpatial
	case r < m.Range+m.Spatial+m.Identity:
		return g.identityLookup(), ClassIdentity
	case r < m.Range+m.Spatial+m.Identity+m.Join:
		return g.keyJoin(), ClassJoin
	case r < m.Range+m.Spatial+m.Identity+m.Join+m.Aggregate:
		return g.aggregate(), ClassAggregate
	default:
		return g.bulkExtract(), ClassBulk
	}
}

// bulkExtract builds a whole-chunk dump: a wide projection over most
// or all of the photometric table. The selectivity scale stretches
// the covered fraction, letting calibration hit the paper's traffic
// totals while the selective classes keep realistic predicate widths.
func (g *gen) bulkExtract() *sqlparse.SelectStmt {
	t := g.schema.Table("photoobj")
	stmt := g.newStmt(sqlparse.TableRef{Name: t.Name})
	if g.rng.Float64() < 0.8 {
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Star: true})
	} else {
		stmt.Items = g.pickProjection(stmt.Items, t.Name, 8+g.rng.Intn(5))
	}
	// A broad declination band; width responds to calibration.
	c := t.Column("dec")
	frac := 0.4 + 0.6*g.rng.Float64()
	stmt.Where = append(stmt.Where, g.rangePred(c, frac))
	// Galaxy-catalog extracts: a quarter of the dumps pull one
	// morphological class — the classic published data product, and
	// the traffic a Galaxy/Star materialized view can absorb.
	if g.rng.Float64() < 0.25 {
		class := 3.0
		if g.rng.Float64() < 0.35 {
			class = 6
		}
		stmt.Where = append(stmt.Where, sqlparse.Condition{
			Left: sqlparse.ColRef{Column: "type"}, Op: sqlparse.OpEq, Value: class,
		})
	}
	return stmt
}

// newStmt resets g.stmt to a statement over the tables, keeping the
// memory of its lists, and returns it.
func (g *gen) newStmt(from ...sqlparse.TableRef) *sqlparse.SelectStmt {
	g.stmt = sqlparse.SelectStmt{
		Items: g.stmt.Items[:0],
		From:  append(g.stmt.From[:0], from...),
		Where: g.stmt.Where[:0],
	}
	return &g.stmt
}

// pickProjection appends k distinct pool columns of the table, drawn
// by popularity rank, to items.
func (g *gen) pickProjection(items []sqlparse.SelectItem, table string, k int) []sqlparse.SelectItem {
	pool := g.pools[table]
	if k > len(pool) {
		k = len(pool)
	}
	start := len(items)
	for len(items)-start < k {
		name := pool[g.zipfPick(len(pool))]
		if !projects(items[start:], name) {
			items = append(items, sqlparse.SelectItem{Col: sqlparse.ColRef{Column: name}})
		}
	}
	return items
}

// projects reports whether items project the column name.
func projects(items []sqlparse.SelectItem, name string) bool {
	for _, it := range items {
		if it.Col.Column == name {
			return true
		}
	}
	return false
}

// predColumn picks a float pool column suitable for range predicates.
func (g *gen) predColumn(t *catalog.Table) *catalog.Column {
	pool := g.pools[t.Name]
	for tries := 0; tries < 30; tries++ {
		c := t.Column(pool[g.zipfPick(len(pool))])
		if c == nil || c.Key {
			continue
		}
		if c.Type == catalog.Float32 || c.Type == catalog.Float64 {
			return c
		}
	}
	// Fallback: first float column.
	for i := range t.Columns {
		c := &t.Columns[i]
		if !c.Key && (c.Type == catalog.Float32 || c.Type == catalog.Float64) {
			return c
		}
	}
	return &t.Columns[0]
}

// rangePred builds `col between lo and hi` with selectivity
// frac·scale of the column span (clamped to the span). A configured
// SizeShape multiplies the width by a heavy-tailed draw; the nil
// default consumes no randomness, so paper profiles are unchanged.
func (g *gen) rangePred(c *catalog.Column, frac float64) sqlparse.Condition {
	if g.p.SizeShape != nil {
		frac *= g.p.SizeShape.sample(g.rng)
	}
	return g.rangePredRaw(c, frac*g.scale)
}

// rangePredRaw is rangePred without the calibration scale, for query
// classes whose yields must stay small regardless of the traffic
// target (the cold-table probes).
func (g *gen) rangePredRaw(c *catalog.Column, frac float64) sqlparse.Condition {
	span := c.Max - c.Min
	w := span * frac
	if w > span {
		w = span
	}
	lo := c.Min + g.rng.Float64()*(span-w)
	return sqlparse.Condition{
		Left:    sqlparse.ColRef{Column: c.Name},
		Between: true,
		Lo:      round4(lo),
		Hi:      round4(lo + w),
	}
}

// rangeScan builds the workhorse class: a projection of popular
// columns over a predicate range of the photometric (mostly) table.
func (g *gen) rangeScan() *sqlparse.SelectStmt {
	t := g.schema.Table("photoobj")
	switch r := g.rng.Float64(); {
	case r < 0.15:
		t = g.schema.Table("specobj")
	case r < 0.30:
		// Cold-table probes: scattered, low-yield queries over the
		// big survey-metadata tables. Their yields stay small
		// regardless of calibration — cheap to bypass, ruinous for an
		// in-line cache that must load the whole object to answer
		// them.
		return g.coldProbe()
	}
	stmt := g.newStmt(sqlparse.TableRef{Name: t.Name})
	switch r := g.rng.Float64(); {
	case r < 0.25:
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Star: true})
	case r < 0.70:
		// Wide cross-match extracts: most of the pool at once.
		stmt.Items = g.pickProjection(stmt.Items, t.Name, 7+g.rng.Intn(6))
	default:
		stmt.Items = g.pickProjection(stmt.Items, t.Name, 2+g.rng.Intn(5))
	}
	c := g.predColumn(t)
	base := 0.05 + g.rng.ExpFloat64()*0.13
	stmt.Where = append(stmt.Where, g.rangePred(c, base))
	if g.rng.Float64() < 0.3 {
		c2 := g.predColumn(t)
		if c2.Name != c.Name {
			cut := c2.Min + (0.3+0.6*g.rng.Float64())*(c2.Max-c2.Min)
			stmt.Where = append(stmt.Where, sqlparse.Condition{
				Left: sqlparse.ColRef{Column: c2.Name}, Op: sqlparse.OpLt, Value: round4(cut),
			})
		}
	}
	// Astronomers often restrict to a morphological class ("galaxies
	// only"); these predicates are what make the Galaxy/Star
	// materialized views answerable.
	if t.Name == "photoobj" && t.Column("type") != nil && g.rng.Float64() < 0.15 {
		class := 3.0 // galaxies
		if g.rng.Float64() < 0.4 {
			class = 6 // stars
		}
		stmt.Where = append(stmt.Where, sqlparse.Condition{
			Left: sqlparse.ColRef{Column: "type"}, Op: sqlparse.OpEq, Value: class,
		})
	}
	return stmt
}

// coldTables are the probe targets: big, rarely-useful-to-cache
// survey metadata.
var coldTables = []string{"neighbors", "frame", "specline", "mask", "chunk", "platex"}

// campaignTables are the cold tables that host burst campaigns — the
// scientifically meaningful ones; mask/chunk/platex stay pure noise.
var campaignTables = []string{"neighbors", "frame", "specline"}

// coldProbe builds a low-yield query against a cold table.
func (g *gen) coldProbe() *sqlparse.SelectStmt {
	t := g.schema.Table(coldTables[g.rng.Intn(len(coldTables))])
	stmt := g.newStmt(sqlparse.TableRef{Name: t.Name})
	stmt.Items = g.pickProjection(stmt.Items, t.Name, 2+g.rng.Intn(3))
	c := g.predColumn(t)
	stmt.Where = append(stmt.Where, g.rangePredRaw(c, 0.002+0.02*g.rng.Float64()))
	return stmt
}

// spatialSearch builds a region query around the drifting sky cursor:
// the paper's "common query iterates over regions of the sky looking
// for objects with specific properties" — same schema, different data.
func (g *gen) spatialSearch() *sqlparse.SelectStmt {
	t := g.schema.Table("photoobj")
	// Random-walk the region center.
	g.raCenter = math.Mod(g.raCenter+g.rng.NormFloat64()*3+360, 360)
	g.decCenter += g.rng.NormFloat64() * 1.5
	if g.decCenter > 80 {
		g.decCenter = 80
	}
	if g.decCenter < -80 {
		g.decCenter = -80
	}
	side := (4 + g.rng.ExpFloat64()*18) * math.Sqrt(g.scale)
	if side > 360 {
		side = 360
	}
	raLo := math.Mod(g.raCenter-side/2+360, 360)
	if raLo+side > 360 {
		raLo = 360 - side
	}
	decSide := side / 2
	decLo := g.decCenter - decSide/2
	if decLo < -90 {
		decLo = -90
	}
	if decLo+decSide > 90 {
		decLo = 90 - decSide
	}
	stmt := g.newStmt(sqlparse.TableRef{Name: t.Name})
	if g.rng.Float64() < 0.35 {
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Star: true})
	} else {
		stmt.Items = append(stmt.Items,
			sqlparse.SelectItem{Col: sqlparse.ColRef{Column: "objid"}},
			sqlparse.SelectItem{Col: sqlparse.ColRef{Column: "ra"}},
			sqlparse.SelectItem{Col: sqlparse.ColRef{Column: "dec"}})
		stmt.Items = g.pickProjection(stmt.Items, t.Name, 1+g.rng.Intn(2))
	}
	stmt.Where = append(stmt.Where,
		sqlparse.Condition{Left: sqlparse.ColRef{Column: "ra"}, Between: true, Lo: round4(raLo), Hi: round4(raLo + side)},
		sqlparse.Condition{Left: sqlparse.ColRef{Column: "dec"}, Between: true, Lo: round4(decLo), Hi: round4(decLo + decSide)})
	// Some region searches want the brightest objects first: a TOP-N
	// ordered by magnitude (the ordering column must be projected).
	if !stmt.Items[0].Star && g.rng.Float64() < 0.18 {
		mag := t.Column("modelmag_r")
		if mag != nil {
			if !projects(stmt.Items, mag.Name) {
				stmt.Items = append(stmt.Items, sqlparse.SelectItem{Col: sqlparse.ColRef{Column: mag.Name}})
			}
			stmt.Top = int64(100 + g.rng.Intn(900))
			g.orderBy = sqlparse.OrderSpec{Col: sqlparse.ColRef{Column: mag.Name}}
			stmt.OrderBy = &g.orderBy
		}
	}
	return stmt
}

// identityLookup builds a point query on the key — the class behind
// Figure 4's containment analysis. Identifiers are mostly unique;
// with small probability a recent one repeats.
func (g *gen) identityLookup() *sqlparse.SelectStmt {
	t := g.schema.Table("photoobj")
	var id int64
	if len(g.idHistory) > 0 && g.rng.Float64() < g.p.IDReuseProb {
		id = g.idHistory[g.rng.Intn(len(g.idHistory))]
	} else {
		id = g.rng.Int63n(t.Rows)
		g.idHistory = append(g.idHistory, id)
		if len(g.idHistory) > 256 {
			g.idHistory = g.idHistory[1:]
		}
	}
	// Identity lookups mostly want the full object detail — columns
	// well outside the hot pool. Their yields are a few hundred bytes,
	// but an in-line cache must load every referenced column (tens of
	// megabytes each) to answer them: the paper's "bringing the large
	// data into cache and computing a small result could waste an
	// arbitrarily large amount of network bandwidth".
	stmt := g.newStmt(sqlparse.TableRef{Name: t.Name})
	switch r := g.rng.Float64(); {
	case r < 0.05:
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Star: true})
	case r < 0.40:
		stmt.Items = g.pickProjection(stmt.Items, t.Name, 4+g.rng.Intn(4))
	default:
		stmt.Items = g.randomProjection(stmt.Items, t, 14+g.rng.Intn(12))
	}
	stmt.Where = append(stmt.Where, sqlparse.Condition{
		Left: sqlparse.ColRef{Column: "objid"}, Op: sqlparse.OpEq, Value: float64(id),
	})
	return stmt
}

// randomProjection appends k columns drawn uniformly from the whole
// table (not just the hot pool) to items.
func (g *gen) randomProjection(items []sqlparse.SelectItem, t *catalog.Table, k int) []sqlparse.SelectItem {
	if k > len(t.Columns) {
		k = len(t.Columns)
	}
	for _, idx := range g.permute(len(t.Columns))[:k] {
		items = append(items, sqlparse.SelectItem{Col: sqlparse.ColRef{Column: t.Columns[idx].Name}})
	}
	return items
}

// permute is rand.Perm(n) on the generator's source, the same draws
// giving the same permutation, written into a buffer the generator
// keeps; it is valid until the next call.
func (g *gen) permute(n int) []int {
	if cap(g.perm) < n {
		g.perm = make([]int, n)
	}
	m := g.perm[:n]
	for i := range m {
		j := g.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// keyJoin builds a federation join: mostly the paper's example
// template (photoobj ⋈ specobj with spectral and photometric
// filters), and sometimes a neighbors cross-match — the defining
// SkyQuery workload, whose fan-out makes results larger than either
// input's referenced slice.
func (g *gen) keyJoin() *sqlparse.SelectStmt {
	if g.rng.Float64() < 0.4 {
		return g.crossMatch()
	}
	return g.specJoin()
}

// crossMatch builds photoobj ⋈ neighbors: every photometric object
// pairs with its ~2.5 neighbors, so selective photometric cuts still
// produce bulky pair lists.
func (g *gen) crossMatch() *sqlparse.SelectStmt {
	stmt := g.newStmt(sqlparse.TableRef{Name: "photoobj", Alias: "p"}, sqlparse.TableRef{Name: "neighbors", Alias: "n"})
	g.rightCol = sqlparse.ColRef{Table: "n", Column: "objid"}
	stmt.Where = append(stmt.Where, sqlparse.Condition{
		Left: sqlparse.ColRef{Table: "p", Column: "objid"}, Op: sqlparse.OpEq, RightCol: &g.rightCol,
	})
	if g.rng.Float64() < 0.3 {
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Star: true})
	} else {
		stmt.Items = append(stmt.Items,
			sqlparse.SelectItem{Col: sqlparse.ColRef{Table: "p", Column: "objid"}},
			sqlparse.SelectItem{Col: sqlparse.ColRef{Table: "p", Column: "ra"}},
			sqlparse.SelectItem{Col: sqlparse.ColRef{Table: "p", Column: "dec"}},
			sqlparse.SelectItem{Col: sqlparse.ColRef{Table: "n", Column: "neighborobjid"}},
			sqlparse.SelectItem{Col: sqlparse.ColRef{Table: "n", Column: "distance"}})
		picked := len(stmt.Items)
		stmt.Items = g.pickProjection(stmt.Items, "photoobj", 1+g.rng.Intn(3))
		for i := picked; i < len(stmt.Items); i++ {
			stmt.Items[i].Col.Table = "p"
		}
	}
	t := g.schema.Table("photoobj")
	c := g.predColumn(t)
	cond := g.rangePred(c, 0.1+g.rng.ExpFloat64()*0.2)
	cond.Left.Table = "p"
	stmt.Where = append(stmt.Where, cond)
	return stmt
}

// specJoin is the paper's example template.
func (g *gen) specJoin() *sqlparse.SelectStmt {
	mag := g.pools["photoobj"][g.zipfPick(len(g.pools["photoobj"]))]
	if g.schema.Table("photoobj").Column(mag).Key {
		mag = "modelmag_g"
	}
	zMax := round4((0.3 + 2.7*g.rng.Float64()) * math.Min(g.scale, 2))
	stmt := g.newStmt(sqlparse.TableRef{Name: "specobj", Alias: "s"}, sqlparse.TableRef{Name: "photoobj", Alias: "p"})
	stmt.Items = append(stmt.Items,
		sqlparse.SelectItem{Col: sqlparse.ColRef{Table: "p", Column: "objid"}},
		sqlparse.SelectItem{Col: sqlparse.ColRef{Table: "p", Column: "ra"}},
		sqlparse.SelectItem{Col: sqlparse.ColRef{Table: "p", Column: "dec"}},
		sqlparse.SelectItem{Col: sqlparse.ColRef{Table: "p", Column: mag}},
		sqlparse.SelectItem{Col: sqlparse.ColRef{Table: "s", Column: "z"}, Alias: "redshift"})
	g.rightCol = sqlparse.ColRef{Table: "s", Column: "objid"}
	stmt.Where = append(stmt.Where,
		sqlparse.Condition{Left: sqlparse.ColRef{Table: "p", Column: "objid"}, Op: sqlparse.OpEq,
			RightCol: &g.rightCol},
		sqlparse.Condition{Left: sqlparse.ColRef{Table: "s", Column: "specclass"}, Op: sqlparse.OpEq,
			Value: float64(g.rng.Intn(7))},
		sqlparse.Condition{Left: sqlparse.ColRef{Table: "s", Column: "zconf"}, Op: sqlparse.OpGt,
			Value: round4(0.35 + 0.6*g.rng.Float64())},
		sqlparse.Condition{Left: sqlparse.ColRef{Table: "s", Column: "z"}, Op: sqlparse.OpLt, Value: zMax})
	if mag != "objid" && mag != "ra" && mag != "dec" {
		stmt.Where = append(stmt.Where, sqlparse.Condition{
			Left: sqlparse.ColRef{Table: "p", Column: mag}, Op: sqlparse.OpGt,
			Value: round4(14 + 10*g.rng.Float64()),
		})
	}
	return stmt
}

// aggregate builds a count/avg over a filtered range, sometimes
// grouped by a low-cardinality attribute (the SDSS "census" pattern:
// counts per object type, per spectral class, ...).
func (g *gen) aggregate() *sqlparse.SelectStmt {
	t := g.schema.Table("photoobj")
	if g.rng.Float64() < 0.4 {
		t = g.schema.Table("specobj")
	}
	c := g.predColumn(t)
	stmt := g.newStmt(sqlparse.TableRef{Name: t.Name})
	switch r := g.rng.Float64(); {
	case r < 0.4:
		if gc := g.groupColumn(t); gc != nil {
			stmt.Items = append(stmt.Items,
				sqlparse.SelectItem{Col: sqlparse.ColRef{Column: gc.Name}},
				sqlparse.SelectItem{Agg: sqlparse.AggCount, Star: true},
				sqlparse.SelectItem{Agg: sqlparse.AggAvg, Col: sqlparse.ColRef{Column: g.predColumn(t).Name}})
			g.groupBy = sqlparse.ColRef{Column: gc.Name}
			stmt.GroupBy = &g.groupBy
			break
		}
		fallthrough
	case r < 0.7:
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Agg: sqlparse.AggCount, Star: true})
	default:
		ac := g.predColumn(t)
		stmt.Items = append(stmt.Items,
			sqlparse.SelectItem{Agg: sqlparse.AggCount, Star: true},
			sqlparse.SelectItem{Agg: sqlparse.AggAvg, Col: sqlparse.ColRef{Column: ac.Name}})
	}
	stmt.Where = append(stmt.Where, g.rangePred(c, 0.1+0.4*g.rng.Float64()))
	return stmt
}

// groupColumn picks a low-cardinality integer attribute suitable for
// GROUP BY, or nil if the table has none.
func (g *gen) groupColumn(t *catalog.Table) *catalog.Column {
	cands := g.cands[:0]
	for i := range t.Columns {
		c := &t.Columns[i]
		if c.Key {
			continue
		}
		isInt := c.Type == catalog.Int16 || c.Type == catalog.Int32
		if isInt && c.Max-c.Min <= 100 {
			cands = append(cands, c)
		}
	}
	g.cands = cands
	if len(cands) == 0 {
		return nil
	}
	return cands[g.rng.Intn(len(cands))]
}

// logRecord builds a log-self query record: the SDSS logs were stored
// in the database and queried by curious users; the paper removes
// these in preprocessing. They reference a pseudo-object outside the
// release schema.
func (g *gen) logRecord(seq int64) trace.Record {
	y := int64(2048 + g.rng.Intn(30000))
	return trace.Record{
		Seq:   seq,
		SQL:   fmt.Sprintf("select top %d statement from sqllog where error = 0", 50+g.rng.Intn(200)),
		Class: trace.ClassLog,
		Yield: y,
		Accesses: []trace.Access{
			{Object: g.schema.Name + "/sqllog", Yield: y},
		},
	}
}

// round4 trims predicate constants to 4 decimals so statements stay
// readable and round-trip exactly through the SQL grammar.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }
