package sqlparse

import (
	"reflect"
	"testing"
)

// The paper's example query (Section 6), normalized to the subset's
// numeric types (specClass = 2 etc. are numeric in SDSS).
const paperQuery = `select p.objID, p.ra, p.dec, p.modelMag_g, s.z as redshift
 from SpecObj s, PhotoObj p
 where p.ObjID = s.ObjID and s.specClass = 2 and s.zConf > 0.95
   and p.modelMag_g > 17.0 and s.z < 0.01`

func TestParsePaperExampleQuery(t *testing.T) {
	stmt, err := Parse(paperQuery)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(stmt.Items) != 5 {
		t.Fatalf("items = %d, want 5", len(stmt.Items))
	}
	if stmt.Items[4].Alias != "redshift" || stmt.Items[4].Col != (ColRef{"s", "z"}) {
		t.Fatalf("item 5 = %+v, want s.z as redshift", stmt.Items[4])
	}
	if len(stmt.From) != 2 {
		t.Fatalf("from = %d tables, want 2", len(stmt.From))
	}
	if stmt.From[0] != (TableRef{"specobj", "s"}) || stmt.From[1] != (TableRef{"photoobj", "p"}) {
		t.Fatalf("from = %+v", stmt.From)
	}
	if len(stmt.Where) != 5 {
		t.Fatalf("where = %d conjuncts, want 5", len(stmt.Where))
	}
	join := stmt.Where[0]
	if join.RightCol == nil || join.Op != OpEq {
		t.Fatalf("first conjunct should be a join: %+v", join)
	}
	if join.Left != (ColRef{"p", "objid"}) || *join.RightCol != (ColRef{"s", "objid"}) {
		t.Fatalf("join condition = %+v", join)
	}
	if stmt.Where[2].Left != (ColRef{"s", "zconf"}) || stmt.Where[2].Op != OpGt || stmt.Where[2].Value != 0.95 {
		t.Fatalf("zconf conjunct = %+v", stmt.Where[2])
	}
}

func TestParseSimpleSelect(t *testing.T) {
	stmt, err := Parse("select ra, dec from photoobj")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 2 || stmt.Items[0].Col.Column != "ra" {
		t.Fatalf("stmt = %+v", stmt)
	}
	if len(stmt.Where) != 0 {
		t.Fatal("no where expected")
	}
}

func TestParseStar(t *testing.T) {
	stmt, err := Parse("select * from photoobj where ra between 10 and 20")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Items[0].Star {
		t.Fatal("star projection expected")
	}
	w := stmt.Where[0]
	if !w.Between || w.Lo != 10 || w.Hi != 20 {
		t.Fatalf("between = %+v", w)
	}
}

func TestParseTop(t *testing.T) {
	stmt, err := Parse("select top 10 objid from photoobj where type = 3")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Top != 10 {
		t.Fatalf("top = %d, want 10", stmt.Top)
	}
}

func TestParseAggregates(t *testing.T) {
	stmt, err := Parse("select count(*), avg(modelmag_r), min(z), max(z), sum(ew) from specobj")
	if err != nil {
		t.Fatal(err)
	}
	wantAggs := []AggFunc{AggCount, AggAvg, AggMin, AggMax, AggSum}
	for i, want := range wantAggs {
		if stmt.Items[i].Agg != want {
			t.Fatalf("item %d agg = %q, want %q", i, stmt.Items[i].Agg, want)
		}
	}
	if !stmt.Items[0].Star {
		t.Fatal("count(*) should be star")
	}
	if !stmt.HasAggregate() {
		t.Fatal("HasAggregate should be true")
	}
}

func TestParseAggNameAsColumn(t *testing.T) {
	// "count" not followed by '(' is an ordinary column name.
	stmt, err := Parse("select count from field")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Items[0].Agg != AggNone || stmt.Items[0].Col.Column != "count" {
		t.Fatalf("item = %+v", stmt.Items[0])
	}
}

func TestParseNegativeAndExponentNumbers(t *testing.T) {
	stmt, err := Parse("select ra from photoobj where dec > -12.5 and flags < 1e18")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Where[0].Value != -12.5 {
		t.Fatalf("value = %v, want -12.5", stmt.Where[0].Value)
	}
	if stmt.Where[1].Value != 1e18 {
		t.Fatalf("value = %v, want 1e18", stmt.Where[1].Value)
	}
}

func TestParseOperators(t *testing.T) {
	stmt, err := Parse("select a from t where a = 1 and b < 2 and c > 3 and d <= 4 and e >= 5 and f <> 6 and g != 7")
	if err != nil {
		t.Fatal(err)
	}
	want := []CompareOp{OpEq, OpLt, OpGt, OpLe, OpGe, OpNotEq, OpNotEq}
	for i, op := range want {
		if stmt.Where[i].Op != op {
			t.Fatalf("conjunct %d op = %q, want %q", i, stmt.Where[i].Op, op)
		}
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	a, err := Parse("SELECT RA FROM PhotoObj WHERE Dec > 5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("select ra from photoobj where dec > 5")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("case should not matter")
	}
}

func TestParseImplicitAlias(t *testing.T) {
	stmt, err := Parse("select p.ra r from photoobj p")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Items[0].Alias != "r" {
		t.Fatalf("alias = %q, want r", stmt.Items[0].Alias)
	}
	if stmt.From[0].Alias != "p" {
		t.Fatalf("table alias = %q, want p", stmt.From[0].Alias)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"update t set a = 1",
		"select",
		"select from t",
		"select a",
		"select a from",
		"select a from t where",
		"select a from t where a",
		"select a from t where a =",
		"select a from t where a between 1",
		"select a from t where a between 1 and",
		"select top 0 a from t",
		"select top x a from t",
		"select a from t where a = 1 garbage",
		"select a from t where a ! 1",
		"select a.b.c from t",
		"select count( from t",
		"select a from t where a = 'str'",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("Parse(%q) should fail", sql)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("select a from t where a = 'oops'")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T, want *SyntaxError", err)
	}
	if se.Pos <= 0 {
		t.Fatalf("error position = %d, want > 0", se.Pos)
	}
}

func TestRoundTrip(t *testing.T) {
	queries := []string{
		paperQuery,
		"select * from photoobj",
		"select top 50 objid, ra from photoobj where ra between 120 and 130 and dec > -5",
		"select count(*) from specobj where z < 0.1",
		"select avg(modelmag_r) as m from photoobj p where p.type = 3",
		"select p.objid, n.neighborobjid from photoobj p, neighbors n where p.objid = n.objid and n.distance < 0.01",
	}
	for _, sql := range queries {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		again, err := Parse(stmt.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", stmt.String(), err)
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("round trip mismatch:\n  first:  %+v\n  second: %+v", stmt, again)
		}
	}
}

func TestTableByQualifier(t *testing.T) {
	stmt, err := Parse("select s.z from specobj s, photoobj p where p.objid = s.objid")
	if err != nil {
		t.Fatal(err)
	}
	if tr := stmt.TableByQualifier("s"); tr == nil || tr.Name != "specobj" {
		t.Fatalf("qualifier s → %+v", tr)
	}
	if tr := stmt.TableByQualifier("photoobj"); tr == nil || tr.Name != "photoobj" {
		t.Fatalf("qualifier by name → %+v", tr)
	}
	if tr := stmt.TableByQualifier(""); tr != nil {
		t.Fatal("unqualified in a two-table query must not resolve")
	}
	if tr := stmt.TableByQualifier("x"); tr != nil {
		t.Fatal("unknown qualifier must not resolve")
	}
	single, _ := Parse("select z from specobj")
	if tr := single.TableByQualifier(""); tr == nil || tr.Name != "specobj" {
		t.Fatal("unqualified in a single-table query should resolve")
	}
}
