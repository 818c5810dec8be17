package federation

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/netcost"
	"bypassyield/internal/sqlparse"
)

const paperQuery = `select p.objID, p.ra, p.dec, p.modelMag_g, s.z as redshift
 from SpecObj s, PhotoObj p
 where p.ObjID = s.ObjID and s.specClass = 2 and s.zConf > 0.95
 and p.modelMag_g > 17.0 and s.z < 0.01`

func bindEDR(t *testing.T, sql string) *engine.Bound {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	b, err := engine.Bind(catalog.EDR(), stmt)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return b
}

func TestObjectIDs(t *testing.T) {
	if got := TableObjectID("edr", "PhotoObj"); got != "edr/photoobj" {
		t.Fatalf("TableObjectID = %s", got)
	}
	if got := ColumnObjectID("edr", "PhotoObj", "RA"); got != "edr/photoobj.ra" {
		t.Fatalf("ColumnObjectID = %s", got)
	}
}

// TestGranularityParse: ParseGranularity takes exactly the names String
// returns, and refuses any other spelling with an error listing them.
func TestGranularityParse(t *testing.T) {
	for _, g := range []Granularity{Tables, Columns, Views} {
		if got, err := ParseGranularity(g.String()); err != nil || got != g {
			t.Fatalf("ParseGranularity(%q) = %v, %v", g, got, err)
		}
	}
	for _, s := range []string{"rows", "table", "Tables", "column", "COLUMNS", "view"} {
		if _, err := ParseGranularity(s); err == nil || !strings.HasSuffix(err.Error(), "(have tables, columns, views)") {
			t.Fatalf("ParseGranularity(%q): err = %v, want a refusal listing the names", s, err)
		}
	}
}

func TestObjectsTableGranularity(t *testing.T) {
	s := catalog.EDR()
	objs := Objects(s, Tables, netcost.Uniform())
	if len(objs) != len(s.Tables) {
		t.Fatalf("objects = %d, want %d", len(objs), len(s.Tables))
	}
	po := objs[TableObjectID("edr", "photoobj")]
	if po.Size != s.Table("photoobj").Bytes() {
		t.Fatalf("photoobj size = %d, want %d", po.Size, s.Table("photoobj").Bytes())
	}
	if po.FetchCost != po.Size {
		t.Fatal("uniform network: fetch cost should equal size")
	}
	if po.Site != catalog.SitePhoto {
		t.Fatalf("site = %s", po.Site)
	}
}

func TestObjectsColumnGranularity(t *testing.T) {
	s := catalog.EDR()
	objs := Objects(s, Columns, netcost.Uniform())
	var nCols int
	for i := range s.Tables {
		nCols += len(s.Tables[i].Columns)
	}
	if len(objs) != nCols {
		t.Fatalf("objects = %d, want %d", len(objs), nCols)
	}
	ra := objs[ColumnObjectID("edr", "photoobj", "ra")]
	want := int64(8) * s.Table("photoobj").Rows
	if ra.Size != want {
		t.Fatalf("ra size = %d, want %d", ra.Size, want)
	}
	// Column sizes must partition the table size.
	var sum int64
	for j := range s.Table("photoobj").Columns {
		c := &s.Table("photoobj").Columns[j]
		sum += objs[ColumnObjectID("edr", "photoobj", c.Name)].Size
	}
	if sum != s.Table("photoobj").Bytes() {
		t.Fatalf("column sizes sum to %d, table is %d", sum, s.Table("photoobj").Bytes())
	}
}

func TestObjectsNonUniformCost(t *testing.T) {
	s := catalog.EDR()
	nm := &netcost.Model{PerSite: map[string]float64{catalog.SiteSpec: 3}}
	objs := Objects(s, Tables, nm)
	so := objs[TableObjectID("edr", "specobj")]
	if so.FetchCost != so.Size*3 {
		t.Fatalf("specobj fetch = %d, want 3×%d", so.FetchCost, so.Size)
	}
	po := objs[TableObjectID("edr", "photoobj")]
	if po.FetchCost != po.Size {
		t.Fatal("unlisted site should use the default factor 1")
	}
}

func TestDecomposeTablesPaperExample(t *testing.T) {
	// The paper: "yield is divided into half for each table, as four
	// columns of each table are involved in the query."
	b := bindEDR(t, paperQuery)
	accs := Decompose(b, "edr", 1000, Tables)
	if len(accs) != 2 {
		t.Fatalf("accesses = %d, want 2", len(accs))
	}
	shares := map[core.ObjectID]int64{}
	for _, a := range accs {
		shares[a.Object] = a.Yield
	}
	if shares[TableObjectID("edr", "photoobj")] != 500 || shares[TableObjectID("edr", "specobj")] != 500 {
		t.Fatalf("shares = %v, want 500/500", shares)
	}
}

func TestDecomposeColumnsPaperExample(t *testing.T) {
	// The paper: "Storage of p.objid is 8 bytes, so its yield is
	// 8/46 · Y" with the example query's 46 referenced bytes.
	b := bindEDR(t, paperQuery)
	const y = 46000
	accs := Decompose(b, "edr", y, Columns)
	if len(accs) != 8 {
		t.Fatalf("accesses = %d, want 8", len(accs))
	}
	byID := map[core.ObjectID]int64{}
	var sum int64
	for _, a := range accs {
		byID[a.Object] = a.Yield
		sum += a.Yield
	}
	if sum != y {
		t.Fatalf("yields sum to %d, want %d (conservation)", sum, y)
	}
	if got := byID[ColumnObjectID("edr", "photoobj", "objid")]; got != 8000 {
		t.Fatalf("objid share = %d, want 8000 (8/46 of %d)", got, y)
	}
	if got := byID[ColumnObjectID("edr", "specobj", "specclass")]; got != 2000 {
		t.Fatalf("specclass share = %d, want 2000 (2/46)", got)
	}
}

func TestDecomposeConservation(t *testing.T) {
	// Property: decomposed yields always sum exactly to the query
	// yield, at both granularities, including awkward remainders.
	b := bindEDR(t, paperQuery)
	f := func(yRaw uint32) bool {
		y := int64(yRaw % 1000003)
		for _, g := range []Granularity{Tables, Columns, Views} {
			var sum int64
			for _, a := range Decompose(b, "edr", y, g) {
				if a.Yield < 0 {
					return false
				}
				sum += a.Yield
			}
			if sum != y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeZeroYield(t *testing.T) {
	b := bindEDR(t, paperQuery)
	accs := Decompose(b, "edr", 0, Columns)
	for _, a := range accs {
		if a.Yield != 0 {
			t.Fatalf("zero yield decomposed to %v", a)
		}
	}
}

func TestDecomposeSingleTable(t *testing.T) {
	b := bindEDR(t, "select ra, dec from photoobj where ra between 100 and 110")
	accs := Decompose(b, "edr", 999, Tables)
	if len(accs) != 1 || accs[0].Object != TableObjectID("edr", "photoobj") || accs[0].Yield != 999 {
		t.Fatalf("accesses = %+v", accs)
	}
}

func newTestMediator(t *testing.T, p core.Policy, g Granularity) *Mediator {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 20000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Schema: s, Engine: db, Policy: p, Granularity: g})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMediatorNoCachePolicyBypassesAll(t *testing.T) {
	m := newTestMediator(t, nil, Tables)
	rep, err := m.Query("select ra, dec from photoobj where ra < 90")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Decisions {
		if d.Decision != core.Bypass {
			t.Fatalf("decision = %v, want bypass with nil policy", d.Decision)
		}
	}
	acct := m.Accounting()
	if acct.WANBytes() != rep.Result.Bytes {
		t.Fatalf("WAN = %d, want yield %d", acct.WANBytes(), rep.Result.Bytes)
	}
}

func TestMediatorAccountingConservation(t *testing.T) {
	// D_A = D_S + D_C must equal total yield across many queries.
	cap := catalog.EDR().TotalBytes() * 3 / 10
	m := newTestMediator(t, core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), Columns)
	queries := []string{
		"select ra, dec from photoobj where ra between 100 and 140",
		"select ra, dec from photoobj where ra between 140 and 180",
		"select ra, dec, modelmag_r from photoobj where modelmag_r < 20",
		paperQuery,
		"select count(*) from specobj where z < 0.3",
	}
	var totalYield int64
	for round := 0; round < 5; round++ {
		for _, q := range queries {
			rep, err := m.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			totalYield += rep.Result.Bytes
		}
	}
	acct := m.Accounting()
	if acct.DeliveredBytes() != totalYield {
		t.Fatalf("D_A = %d, want %d", acct.DeliveredBytes(), totalYield)
	}
	if acct.Queries != 25 {
		t.Fatalf("queries = %d, want 25", acct.Queries)
	}
	if clock := m.read(nil).Clock; clock != 25 {
		t.Fatalf("clock = %d, want 25", clock)
	}
}

func TestMediatorCachingReducesWAN(t *testing.T) {
	// Repeating the same schema-local queries, a bypass-yield cache
	// must beat no caching.
	cap := catalog.EDR().TotalBytes() / 2
	withCache := newTestMediator(t, core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), Columns)
	noCache := newTestMediator(t, nil, Columns)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		lo := float64(r.Intn(300))
		sql := fmt.Sprintf("select ra, dec from photoobj where ra between %g and %g", lo, lo+30)
		if _, err := withCache.Query(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := noCache.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	w, n := withCache.Accounting().WANBytes(), noCache.Accounting().WANBytes()
	if w >= n {
		t.Fatalf("cache WAN %d not below no-cache %d", w, n)
	}
}

// TestQueryReportCarriesTheBoundStatement: the mediator binds a
// statement once. QueryScratch's report carries that binding — the
// statement its Scratch parsed, bound against the mediator's schema —
// and a result with the tuples executing it gives. QueryStmt's report
// carries no binding, which stayed in the pooled Scratch, and a result
// that is what executing a binding of the caller's own gives, without
// the tuples.
func TestQueryReportCarriesTheBoundStatement(t *testing.T) {
	m := newTestMediator(t, nil, Tables)
	sql := "select p.ra, s.z from photoobj p, specobj s where p.objid = s.objid and s.z < 1"
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := engine.Bind(m.Schema(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.cfg.Engine.ExecuteBound(bound)
	if err != nil {
		t.Fatal(err)
	}

	var sc Scratch
	rep, err := m.QueryScratch(&sc, sql, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bound != &sc.bound || rep.Bound.Stmt == nil || rep.Bound.Stmt.String() != stmt.String() || rep.Bound.Schema != m.Schema() {
		t.Fatalf("QueryScratch: Bound = %+v, want the Scratch's binding of the statement against the mediator's schema", rep.Bound)
	}
	if got := rep.Result; !reflect.DeepEqual(got.Columns, again.Columns) || got.Rows != again.Rows || got.Bytes != again.Bytes ||
		got.SampleMatches != again.SampleMatches || !reflect.DeepEqual(got.Tuples, again.Tuples) {
		t.Fatalf("QueryScratch: executing the statement gives %+v, the report says %+v", again, got)
	}
	sc.Release()

	rep, err = m.QueryStmt(sql, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bound != nil {
		t.Fatalf("QueryStmt: Bound = %+v, want nil", rep.Bound)
	}
	got := rep.Result
	if !reflect.DeepEqual(got.Columns, again.Columns) || got.Rows != again.Rows || got.Bytes != again.Bytes ||
		got.SampleMatches != again.SampleMatches || got.Tuples != nil {
		t.Fatalf("QueryStmt: executing the statement gives %+v, the report says %+v: want its sizes and columns and no tuples", again, got)
	}
	if _, err := m.Query("select sum(*) from photoobj"); err == nil {
		t.Fatal("sum(*) must be refused at bind")
	}
}

func TestMediatorQueryErrors(t *testing.T) {
	m := newTestMediator(t, nil, Tables)
	if _, err := m.Query("not sql"); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := m.Query("select ghost from photoobj"); err == nil {
		t.Fatal("bind error expected")
	}
}

func TestMediatorConfigValidation(t *testing.T) {
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Schema: s}); err == nil {
		t.Fatal("missing engine should error")
	}
	other := catalog.DR1()
	if _, err := New(Config{Schema: other, Engine: db}); err == nil {
		t.Fatal("schema mismatch should error")
	}
}

func TestSubqueries(t *testing.T) {
	b := bindEDR(t, paperQuery)
	subs := Subqueries(b)
	if len(subs) != 2 {
		t.Fatalf("subqueries = %d, want 2", len(subs))
	}
	// First FROM table is specobj: its subquery projects its
	// referenced columns and keeps only its local predicates.
	spec := subs[0]
	if spec.From[0].Name != "specobj" {
		t.Fatalf("first subquery table = %s", spec.From[0].Name)
	}
	if len(spec.Where) != 3 {
		t.Fatalf("specobj subquery conjuncts = %d, want 3 (specclass, zconf, z)", len(spec.Where))
	}
	cols := map[string]bool{}
	for _, item := range spec.Items {
		cols[item.Col.Column] = true
	}
	for _, want := range []string{"objid", "z", "zconf", "specclass"} {
		if !cols[want] {
			t.Fatalf("specobj subquery missing column %s (items %v)", want, spec.Items)
		}
	}
	// Subqueries must re-parse (they go over the wire as SQL).
	for _, sub := range subs {
		if _, err := sqlparse.Parse(sub.String()); err != nil {
			t.Fatalf("subquery %q does not re-parse: %v", sub.String(), err)
		}
	}
	// Executing each subquery against the schema must bind.
	for _, sub := range subs {
		if _, err := engine.Bind(catalog.EDR(), sub); err != nil {
			t.Fatalf("subquery bind: %v", err)
		}
	}
}

func TestViewObjectID(t *testing.T) {
	if got := ViewObjectID("edr", "Galaxy"); got != "edr/view:galaxy" {
		t.Fatalf("ViewObjectID = %s", got)
	}
}

func TestObjectsViewsGranularity(t *testing.T) {
	s := catalog.EDR()
	objs := Objects(s, Views, netcost.Uniform())
	// Tables remain as fallback objects.
	if _, ok := objs[TableObjectID("edr", "photoobj")]; !ok {
		t.Fatal("views universe must include base tables")
	}
	g, ok := objs[ViewObjectID("edr", "galaxy")]
	if !ok {
		t.Fatal("views universe missing galaxy view")
	}
	po := objs[TableObjectID("edr", "photoobj")]
	if g.Size <= 0 || g.Size >= po.Size {
		t.Fatalf("galaxy size %d should be a fraction of photoobj %d", g.Size, po.Size)
	}
	if g.Site != po.Site {
		t.Fatal("view should live at its base table's site")
	}
}

func TestDecomposeViewsMatchesGalaxy(t *testing.T) {
	// A galaxies-only query over view-covered columns decomposes to
	// the galaxy view, not the base table.
	b := bindEDR(t, "select ra, dec, modelmag_r from photoobj where type = 3 and ra between 10 and 20")
	accs := Decompose(b, "edr", 1000, Views)
	if len(accs) != 1 {
		t.Fatalf("accesses = %+v", accs)
	}
	if accs[0].Object != ViewObjectID("edr", "galaxy") {
		t.Fatalf("object = %s, want galaxy view", accs[0].Object)
	}
	if accs[0].Yield != 1000 {
		t.Fatalf("yield = %d", accs[0].Yield)
	}
}

func TestDecomposeViewsPicksSmallestMatch(t *testing.T) {
	// Bright galaxies: both galaxy and brightgalaxy match; the
	// smaller (brightgalaxy) must win.
	b := bindEDR(t, "select ra, modelmag_r from photoobj where type = 3 and modelmag_r between 13 and 18")
	accs := Decompose(b, "edr", 500, Views)
	if accs[0].Object != ViewObjectID("edr", "brightgalaxy") {
		t.Fatalf("object = %s, want brightgalaxy", accs[0].Object)
	}
}

func TestDecomposeViewsFallsBackToTable(t *testing.T) {
	// No type predicate → no photoobj view contains the query region.
	b := bindEDR(t, "select ra, dec from photoobj where ra between 10 and 20")
	accs := Decompose(b, "edr", 100, Views)
	if accs[0].Object != TableObjectID("edr", "photoobj") {
		t.Fatalf("object = %s, want base table", accs[0].Object)
	}
	// Region escaping the view (stars, type=6, but magnitude beyond
	// brightgalaxy) still matches the star view.
	b = bindEDR(t, "select ra from photoobj where type = 6")
	accs = Decompose(b, "edr", 100, Views)
	if accs[0].Object != ViewObjectID("edr", "star") {
		t.Fatalf("object = %s, want star view", accs[0].Object)
	}
}

func TestDecomposeViewsJoin(t *testing.T) {
	// The paper's example join restricted to low redshift: specobj
	// side matches lowzspec, photoobj side falls back to the table
	// (no type predicate).
	b := bindEDR(t, `select p.objid, p.ra, s.z from specobj s, photoobj p
		where p.objid = s.objid and s.z < 0.5`)
	accs := Decompose(b, "edr", 900, Views)
	got := map[core.ObjectID]bool{}
	for _, a := range accs {
		got[a.Object] = true
	}
	if !got[ViewObjectID("edr", "lowzspec")] {
		t.Fatalf("accesses = %v, want lowzspec view", accs)
	}
	if !got[TableObjectID("edr", "photoobj")] {
		t.Fatalf("accesses = %v, want photoobj fallback", accs)
	}
}

// TestNewRefusesInvalidObjects pins the precondition Rate-Profile's
// victim order rests on: New checks core.Object.Validate for every
// object its index numbers, so every size the policy divides by is
// positive and (RP, id) is a total order. Every object of EDR and DR1
// passes at table, column and view granularity; a table emptied after
// its engine was opened gives objects of size zero, and New refuses
// the first of them by name.
func TestNewRefusesInvalidObjects(t *testing.T) {
	grans := []Granularity{Tables, Columns, Views}
	for _, s := range []*catalog.Schema{catalog.EDR(), catalog.DR1()} {
		db, err := engine.Open(s, engine.Config{SampleEvery: 100000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range grans {
			m, err := New(Config{Schema: s, Engine: db, Granularity: g})
			if err != nil {
				t.Fatalf("%s at %s granularity: %v", s.Name, g, err)
			}
			for _, o := range m.Objects() {
				if err := o.Validate(); err != nil {
					t.Fatalf("%s at %s granularity: New accepted %v", s.Name, g, err)
				}
			}
		}
	}
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{SampleEvery: 100000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	emptied := s.Table("specobj")
	emptied.Rows = 0
	for _, g := range grans {
		want := TableObjectID(s.Name, emptied.Name)
		if g == Columns {
			want = ColumnObjectID(s.Name, emptied.Name, emptied.Columns[0].Name)
		}
		_, err := New(Config{Schema: s, Engine: db, Granularity: g})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("object %s has non-positive size 0", want)) {
			t.Fatalf("%s granularity, %s emptied: New returned %v, want %s refused for its size", g, emptied.Name, err, want)
		}
	}
}
