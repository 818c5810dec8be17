package engine

import (
	"math"
	"strings"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/sqlparse"
)

// smallSchema is a precise fixture: t has 1000 rows with a key, a
// uniform float and a 10-valued int; u has 100 rows with a foreign
// key into t.
func smallSchema() *catalog.Schema {
	return &catalog.Schema{
		Name: "test",
		Tables: []catalog.Table{
			{
				Name: "t", Rows: 1000, Site: "site-a",
				Columns: []catalog.Column{
					{Name: "id", Type: catalog.Int64, Min: 0, Max: 1000, Key: true},
					{Name: "x", Type: catalog.Float64, Min: 0, Max: 100},
					{Name: "k", Type: catalog.Int16, Min: 0, Max: 9},
				},
			},
			{
				Name: "u", Rows: 100, Site: "site-b",
				Columns: []catalog.Column{
					{Name: "uid", Type: catalog.Int64, Min: 0, Max: 100, Key: true},
					{Name: "tid", Type: catalog.Int64, Min: 0, Max: 1000},
					{Name: "y", Type: catalog.Float32, Min: 0, Max: 1},
				},
			},
		},
	}
}

func mustParse(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

// estimate binds sql over s and estimates its rows and bytes.
func estimate(t *testing.T, s *catalog.Schema, sql string) (rows, bytes int64, err error) {
	t.Helper()
	b, err := Bind(s, mustParse(t, sql))
	if err != nil {
		return 0, 0, err
	}
	return EstimateBound(b)
}

func mustOpen(t *testing.T, s *catalog.Schema, cfg Config) *DB {
	t.Helper()
	db, err := Open(s, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func TestBindQualifiedAndUnqualified(t *testing.T) {
	s := smallSchema()
	b, err := Bind(s, mustParse(t, "select a.x from t a where a.k = 3"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Projs[0].Col.Name != "x" || b.Projs[0].Table.Name != "t" {
		t.Fatalf("proj = %+v", b.Projs[0])
	}
	// Unqualified column resolving across two tables.
	b, err = Bind(s, mustParse(t, "select y from t, u where tid = id"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Projs[0].Table.Name != "u" {
		t.Fatalf("unqualified y resolved to %s, want u", b.Projs[0].Table.Name)
	}
	if b.Conds[0].Left.Table.Name != "u" || b.Conds[0].Right.Table.Name != "t" {
		t.Fatalf("join bind = %+v", b.Conds[0])
	}
}

func TestBindErrors(t *testing.T) {
	s := smallSchema()
	bad := []string{
		"select x from ghost",
		"select ghost from t",
		"select g.x from t",
		"select t.ghost from t",
		"select x from t where ghost = 1",
		"select id from t, u", // ambiguous? id only in t — fine; use a truly ambiguous case below
	}
	for _, sql := range bad[:5] {
		if _, err := Bind(s, mustParse(t, sql)); err == nil {
			t.Fatalf("Bind(%q) should fail", sql)
		}
	}
	if _, err := Bind(s, mustParse(t, bad[5])); err != nil {
		t.Fatalf("id is unambiguous: %v", err)
	}
}

func TestBindAmbiguous(t *testing.T) {
	s := smallSchema()
	// Add x to u to force ambiguity.
	s.Tables[1].Columns = append(s.Tables[1].Columns, catalog.Column{Name: "x", Type: catalog.Float32, Min: 0, Max: 1})
	if _, err := Bind(s, mustParse(t, "select x from t, u where tid = id")); err == nil {
		t.Fatal("ambiguous x should fail to bind")
	}
}

func TestProjectedWidth(t *testing.T) {
	s := smallSchema()
	cases := []struct {
		sql  string
		want int64
	}{
		{"select x from t", 8},
		{"select id, x, k from t", 18},
		{"select * from t", 18},
		{"select count(*) from t", 8},
		{"select count(*), avg(x) from t", 16},
		{"select * from t, u where id = tid", 38},
	}
	for _, tc := range cases {
		b, err := Bind(s, mustParse(t, tc.sql))
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := b.ProjectedWidth(); got != tc.want {
			t.Fatalf("%s: width = %d, want %d", tc.sql, got, tc.want)
		}
	}
}

func TestReferencedColumnsPaperExample(t *testing.T) {
	// The paper's worked example (Section 6): "the total storage of
	// all columns is 46 bytes. Storage of p.objid is 8 bytes, so its
	// yield is 8/46·Y". Our SDSS schema must reproduce that 46.
	s := catalog.EDR()
	stmt := mustParse(t, `select p.objID, p.ra, p.dec, p.modelMag_g, s.z as redshift
		from SpecObj s, PhotoObj p
		where p.ObjID = s.ObjID and s.specClass = 2 and s.zConf > 0.95
		and p.modelMag_g > 17.0 and s.z < 0.01`)
	b, err := Bind(s, stmt)
	if err != nil {
		t.Fatal(err)
	}
	refs := b.ReferencedColumns()
	var total int64
	for _, r := range refs {
		total += r.Col.Width()
	}
	if total != 46 {
		for _, r := range refs {
			t.Logf("  %s.%s: %d", r.Table.Name, r.Col.Name, r.Col.Width())
		}
		t.Fatalf("total referenced width = %d, want 46 (paper's example)", total)
	}
	if len(refs) != 8 {
		t.Fatalf("referenced columns = %d, want 8", len(refs))
	}
}

func TestReferencedColumnsStar(t *testing.T) {
	s := smallSchema()
	b, err := Bind(s, mustParse(t, "select * from t"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.ReferencedColumns()); got != 3 {
		t.Fatalf("star references %d columns, want 3", got)
	}
}

func TestEstimateRangePredicate(t *testing.T) {
	s := smallSchema()
	// x uniform [0,100]: x < 25 → sel 0.25 → 250 rows × 8 bytes.
	rows, bytes, err := estimate(t, s, "select x from t where x < 25")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 250 || bytes != 2000 {
		t.Fatalf("estimate = %d rows %d bytes, want 250/2000", rows, bytes)
	}
}

func TestEstimateBetween(t *testing.T) {
	s := smallSchema()
	rows, _, err := estimate(t, s, "select x from t where x between 10 and 30")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 200 {
		t.Fatalf("rows = %d, want 200", rows)
	}
}

func TestEstimateIntEquality(t *testing.T) {
	s := smallSchema()
	// k has 10 distinct values → sel 0.1 → 100 rows.
	rows, _, err := estimate(t, s, "select x from t where k = 4")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 100 {
		t.Fatalf("rows = %d, want 100", rows)
	}
}

func TestEstimateKeyEquality(t *testing.T) {
	s := smallSchema()
	rows, _, err := estimate(t, s, "select x from t where id = 42")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Fatalf("rows = %d, want 1 (key lookup)", rows)
	}
}

func TestEstimateFKJoin(t *testing.T) {
	s := smallSchema()
	// FK join: one match per u row → 100 rows.
	rows, _, err := estimate(t, s, "select y from t, u where tid = id")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 100 {
		t.Fatalf("rows = %d, want 100", rows)
	}
	// With a 50% filter on t: 50 rows.
	rows, _, err = estimate(t, s, "select y from t, u where tid = id and x < 50")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 50 {
		t.Fatalf("rows = %d, want 50", rows)
	}
}

func TestEstimateTopAndAggregate(t *testing.T) {
	s := smallSchema()
	rows, bytes, err := estimate(t, s, "select top 10 x from t")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 10 || bytes != 80 {
		t.Fatalf("top: %d rows %d bytes, want 10/80", rows, bytes)
	}
	rows, bytes, err = estimate(t, s, "select count(*) from t where x < 50")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 || bytes != 8 {
		t.Fatalf("agg: %d rows %d bytes, want 1/8", rows, bytes)
	}
}

func TestEstimateOutOfRangePredicates(t *testing.T) {
	s := smallSchema()
	rows, _, err := estimate(t, s, "select x from t where x < -5")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 0 {
		t.Fatalf("below-range: rows = %d, want 0", rows)
	}
	rows, _, err = estimate(t, s, "select x from t where x < 200")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1000 {
		t.Fatalf("above-range: rows = %d, want 1000", rows)
	}
}

func TestExecuteMatchesBruteForce(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 1})
	res, err := db.Execute(mustParse(t, "select x from t where x < 25 and k = 3"))
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over the same synthesized columns.
	xs := db.columnValues("t", "x")
	ks := db.columnValues("t", "k")
	var want int64
	for i := range xs {
		if xs[i] < 25 && ks[i] == 3 {
			want++
		}
	}
	if res.Rows != want {
		t.Fatalf("rows = %d, brute force = %d", res.Rows, want)
	}
	if res.Bytes != want*8 {
		t.Fatalf("bytes = %d, want %d", res.Bytes, want*8)
	}
}

func TestExecuteEstimateAgreement(t *testing.T) {
	// On uniform synthesized data, execution should be within a few
	// percent of the analytic estimate.
	db := mustOpen(t, smallSchema(), Config{Seed: 7})
	for _, sql := range []string{
		"select x from t where x < 25",
		"select x from t where x between 40 and 60",
		"select x, k from t where k >= 5",
	} {
		stmt := mustParse(t, sql)
		res, err := db.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		est, _, err := estimate(t, db.Schema(), sql)
		if err != nil {
			t.Fatal(err)
		}
		diff := math.Abs(float64(res.Rows-est)) / math.Max(float64(est), 1)
		if diff > 0.15 {
			t.Fatalf("%s: executed %d vs estimated %d (%.0f%% off)", sql, res.Rows, est, diff*100)
		}
	}
}

func TestExecuteFKJoinEveryForeignRowMatches(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 3})
	res, err := db.Execute(mustParse(t, "select y from t, u where tid = id"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 100 {
		t.Fatalf("join rows = %d, want 100 (every u row matches)", res.Rows)
	}
}

func TestExecuteJoinWithFilter(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 3})
	res, err := db.Execute(mustParse(t, "select y from t, u where tid = id and x < 50"))
	if err != nil {
		t.Fatal(err)
	}
	// ≈ 50 expected; allow sampling noise.
	if res.Rows < 30 || res.Rows > 70 {
		t.Fatalf("filtered join rows = %d, want ≈ 50", res.Rows)
	}
}

func TestExecuteJoinExtraCrossCondition(t *testing.T) {
	// A non-equality cross-table condition filters join pairs.
	db := mustOpen(t, smallSchema(), Config{Seed: 3})
	all, err := db.Execute(mustParse(t, "select y from t, u where tid = id"))
	if err != nil {
		t.Fatal(err)
	}
	some, err := db.Execute(mustParse(t, "select y from t, u where tid = id and y < x"))
	if err != nil {
		t.Fatal(err)
	}
	if some.Rows > all.Rows {
		t.Fatalf("extra condition grew the result: %d > %d", some.Rows, all.Rows)
	}
}

func TestExecuteCrossProductRejected(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{})
	if _, err := db.Execute(mustParse(t, "select x, y from t, u")); err == nil {
		t.Fatal("cross product should be rejected")
	}
}

func TestExecuteAggregates(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 5})
	res, err := db.Execute(mustParse(t, "select count(*), avg(x), min(x), max(x), sum(k) from t"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 || len(res.Tuples) != 1 {
		t.Fatalf("aggregate result shape: rows=%d tuples=%d", res.Rows, len(res.Tuples))
	}
	tu := res.Tuples[0]
	if tu[0] != 1000 {
		t.Fatalf("count = %v, want 1000", tu[0])
	}
	if tu[1] < 40 || tu[1] > 60 {
		t.Fatalf("avg(x) = %v, want ≈ 50", tu[1])
	}
	if tu[2] < 0 || tu[2] > 5 {
		t.Fatalf("min(x) = %v, want near 0", tu[2])
	}
	if tu[3] < 95 || tu[3] > 100 {
		t.Fatalf("max(x) = %v, want near 100", tu[3])
	}
	if res.Bytes != 40 {
		t.Fatalf("bytes = %d, want 40 (5 aggregates × 8)", res.Bytes)
	}
}

func TestExecuteAggregateEmptyMatch(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 5})
	res, err := db.Execute(mustParse(t, "select count(*), avg(x) from t where x < -1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0][0] != 0 || res.Tuples[0][1] != 0 {
		t.Fatalf("empty aggregate = %v, want zeros", res.Tuples[0])
	}
}

func TestExecuteMixedAggregateAndColumnRejected(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{})
	if _, err := db.Execute(mustParse(t, "select k, count(*) from t")); err == nil {
		t.Fatal("aggregate mixed with plain column should be rejected")
	}
}

func TestExecuteTop(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 5})
	res, err := db.Execute(mustParse(t, "select top 7 x from t"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 7 {
		t.Fatalf("rows = %d, want 7", res.Rows)
	}
	if len(res.Tuples) != 7 {
		t.Fatalf("tuples = %d, want 7", len(res.Tuples))
	}
	if res.Bytes != 56 {
		t.Fatalf("bytes = %d, want 56", res.Bytes)
	}
}

func TestExecuteTupleBound(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 5, MaxResultRows: 10})
	res, err := db.Execute(mustParse(t, "select x from t"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1000 {
		t.Fatalf("rows = %d, want 1000", res.Rows)
	}
	if len(res.Tuples) != 10 {
		t.Fatalf("tuples = %d, want bounded at 10", len(res.Tuples))
	}
}

func TestExecuteKeyLookup(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 5})
	res, err := db.Execute(mustParse(t, "select x from t where id = 42"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 {
		t.Fatalf("key lookup rows = %d, want 1", res.Rows)
	}
}

func TestSamplingScalesLogicalSize(t *testing.T) {
	s := smallSchema()
	full := mustOpen(t, s, Config{Seed: 11, SampleEvery: 1})
	sampled := mustOpen(t, s, Config{Seed: 11, SampleEvery: 10})
	if sampled.SampleRows("t") != 100 {
		t.Fatalf("sampled rows = %d, want 100", sampled.SampleRows("t"))
	}
	stmt := mustParse(t, "select x from t where x < 50")
	rFull, err := full.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	rSampled, err := sampled.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Both report logical scale; they agree within sampling noise.
	ratio := float64(rSampled.Rows) / float64(rFull.Rows)
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("sampled logical rows %d vs full %d", rSampled.Rows, rFull.Rows)
	}
	if rSampled.SampleMatches*10 != rSampled.Rows {
		t.Fatalf("scaling arithmetic: %d × 10 ≠ %d", rSampled.SampleMatches, rSampled.Rows)
	}
}

func TestSampledFKJoinStillMatches(t *testing.T) {
	// Foreign keys snap to the sampling grid, so the FK join works at
	// sample scale: every u sample row still matches.
	sampled := mustOpen(t, smallSchema(), Config{Seed: 11, SampleEvery: 10})
	res, err := sampled.Execute(mustParse(t, "select y from t, u where tid = id"))
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleMatches != int64(sampled.SampleRows("u")) {
		t.Fatalf("sample join matches = %d, want %d (every sampled u row)",
			res.SampleMatches, sampled.SampleRows("u"))
	}
	if res.Rows != res.SampleMatches*10 {
		t.Fatalf("logical rows = %d, want %d", res.Rows, res.SampleMatches*10)
	}
}

func TestOpenDeterministic(t *testing.T) {
	a := mustOpen(t, smallSchema(), Config{Seed: 42})
	b := mustOpen(t, smallSchema(), Config{Seed: 42})
	xa := a.columnValues("t", "x")
	xb := b.columnValues("t", "x")
	for i := range xa {
		if xa[i] != xb[i] {
			t.Fatal("same seed must synthesize identical data")
		}
	}
	c := mustOpen(t, smallSchema(), Config{Seed: 43})
	xc := c.columnValues("t", "x")
	same := true
	for i := range xa {
		if xa[i] != xc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestSynthesizedValuesInRange(t *testing.T) {
	db := mustOpen(t, catalog.EDR(), Config{Seed: 1, SampleEvery: 10000})
	s := db.Schema()
	for _, tab := range s.Tables {
		for _, col := range tab.Columns {
			vals := db.columnValues(tab.Name, col.Name)
			if len(vals) == 0 {
				t.Fatalf("%s.%s: no values", tab.Name, col.Name)
			}
			if col.Key {
				continue // keys are logical ids, bounded by rows
			}
			for _, v := range vals {
				if v < col.Min || v > col.Max {
					t.Fatalf("%s.%s: value %v outside [%v, %v]", tab.Name, col.Name, v, col.Min, col.Max)
				}
			}
		}
	}
}

func TestOutputColumnNames(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 1})
	res, err := db.Execute(mustParse(t, "select id, x as pos, count from t"))
	if err == nil {
		_ = res
		t.Fatal("t has no column named count; expected bind error")
	}
	res, err = db.Execute(mustParse(t, "select id, x as pos from t where id = 1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "t.id" || res.Columns[1] != "pos" {
		t.Fatalf("columns = %v", res.Columns)
	}
	res, err = db.Execute(mustParse(t, "select count(*) from t"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Columns[0], "count") {
		t.Fatalf("aggregate column name = %q", res.Columns[0])
	}
}

func TestExecutePaperQueryOnEDR(t *testing.T) {
	db := mustOpen(t, catalog.EDR(), Config{Seed: 1, SampleEvery: 2000})
	res, err := db.Execute(mustParse(t, `select p.objID, p.ra, p.dec, p.modelMag_g, s.z as redshift
		from SpecObj s, PhotoObj p
		where p.ObjID = s.ObjID and s.specClass = 2 and s.zConf > 0.95
		and p.modelMag_g > 17.0 and s.z < 0.01`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 5 || res.Columns[4] != "redshift" {
		t.Fatalf("columns = %v", res.Columns)
	}
	// Highly selective query: the result must be far smaller than
	// specobj itself.
	specBytes := db.Schema().Table("specobj").Bytes()
	if res.Bytes >= specBytes {
		t.Fatalf("yield %d should be far below specobj size %d", res.Bytes, specBytes)
	}
}

// TestScratchKeepsBoundedVectors: what an execution's scratch takes
// back to the pool is bounded per vector, so one scan at -sample 1 does
// not pin its megabytes, and holds no reference to column data.
func TestScratchKeepsBoundedVectors(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{})
	sc := new(scratch)
	take(&sc.sel[0], maxPooledElems+1)
	take(&sc.sel[1], maxPooledElems)
	take(&sc.pairs, maxPooledElems+1)
	take(&sc.sort.keys, maxPooledElems+1)
	take(&sc.proj, 4)[0] = outCol{vals: db.tables[0].cols[0]}
	sc.release()
	if sc.sel[0] != nil || sc.pairs != nil || sc.sort.keys != nil {
		t.Fatalf("vectors above %d elements survive release: sel %d, pairs %d, keys %d",
			maxPooledElems, cap(sc.sel[0]), cap(sc.pairs), cap(sc.sort.keys))
	}
	if cap(sc.sel[1]) != maxPooledElems || cap(sc.proj) != 4 {
		t.Fatalf("vectors within the bound are dropped: sel %d, proj %d", cap(sc.sel[1]), cap(sc.proj))
	}
	if sc.proj[:1][0].vals != nil {
		t.Fatal("a released scratch still references column data")
	}
}
