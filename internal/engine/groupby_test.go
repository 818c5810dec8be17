package engine

import (
	"sort"
	"testing"

	"bypassyield/internal/catalog"
)

func TestBindGroupByValidation(t *testing.T) {
	s := smallSchema()
	good := []string{
		"select k, count(*) from t group by k",
		"select k from t group by k",
		"select count(*), avg(x) from t group by k",
	}
	for _, sql := range good {
		if _, err := Bind(s, mustParse(t, sql)); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	bad := []string{
		"select x, count(*) from t group by k", // x is not the group column
		"select * from t group by k",
		"select k from t group by ghost",
	}
	for _, sql := range bad {
		if _, err := Bind(s, mustParse(t, sql)); err == nil {
			t.Fatalf("%q should fail to bind", sql)
		}
	}
}

func TestBindOrderByValidation(t *testing.T) {
	s := smallSchema()
	if _, err := Bind(s, mustParse(t, "select x from t order by x")); err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(s, mustParse(t, "select * from t order by x")); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"select x from t order by k",                      // not projected
		"select k, count(*) from t group by k order by k", // group+order unsupported
		"select count(*) from t order by x",               // over aggregate
		"select x from t order by ghost",
	}
	for _, sql := range bad {
		if _, err := Bind(s, mustParse(t, sql)); err == nil {
			t.Fatalf("%q should fail to bind", sql)
		}
	}
}

func TestExecuteGroupByCounts(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 4})
	res, err := db.Execute(mustParse(t, "select k, count(*) from t group by k"))
	if err != nil {
		t.Fatal(err)
	}
	// k has 10 distinct values over 1000 rows.
	if res.Rows != 10 {
		t.Fatalf("groups = %d, want 10", res.Rows)
	}
	var total float64
	for _, tu := range res.Tuples {
		total += tu[1]
	}
	if total != 1000 {
		t.Fatalf("group counts sum to %v, want 1000", total)
	}
	// Group keys sorted ascending, all distinct.
	if !sort.SliceIsSorted(res.Tuples, func(i, j int) bool {
		return res.Tuples[i][0] < res.Tuples[j][0]
	}) {
		t.Fatal("group keys not sorted")
	}
	// Bytes: 10 groups × (2 + 8) bytes.
	if res.Bytes != 100 {
		t.Fatalf("bytes = %d, want 100", res.Bytes)
	}
}

func TestExecuteGroupByMatchesBruteForce(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 4})
	res, err := db.Execute(mustParse(t, "select k, avg(x), count(*) from t where x < 50 group by k"))
	if err != nil {
		t.Fatal(err)
	}
	xs := db.columnValues("t", "x")
	ks := db.columnValues("t", "k")
	sums := map[float64]float64{}
	counts := map[float64]float64{}
	for i := range xs {
		if xs[i] < 50 {
			sums[ks[i]] += xs[i]
			counts[ks[i]]++
		}
	}
	if int(res.Rows) != len(counts) {
		t.Fatalf("groups = %d, brute force = %d", res.Rows, len(counts))
	}
	for _, tu := range res.Tuples {
		k := tu[0]
		if !almostEq(tu[1], sums[k]/counts[k]) {
			t.Fatalf("group %v avg = %v, brute force %v", k, tu[1], sums[k]/counts[k])
		}
		if tu[2] != counts[k] {
			t.Fatalf("group %v count = %v, brute force %v", k, tu[2], counts[k])
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9*(1+b)
}

func TestExecuteGroupBySampledScaling(t *testing.T) {
	// Grouping by a low-cardinality int: the group count does not
	// scale with sampling; per-group counts do.
	db := mustOpen(t, smallSchema(), Config{Seed: 4, SampleEvery: 10})
	res, err := db.Execute(mustParse(t, "select k, count(*) from t group by k"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows > 10 {
		t.Fatalf("groups = %d, want ≤ 10 (unscaled for low-cardinality key)", res.Rows)
	}
	var total float64
	for _, tu := range res.Tuples {
		total += tu[1]
	}
	if total != 1000 {
		t.Fatalf("scaled group counts sum to %v, want 1000", total)
	}
}

func TestEstimateGroupBy(t *testing.T) {
	s := smallSchema()
	rows, bytes, err := estimate(t, s, "select k, count(*) from t group by k")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 10 {
		t.Fatalf("estimated groups = %d, want 10", rows)
	}
	if bytes != 100 {
		t.Fatalf("estimated bytes = %d, want 100", bytes)
	}
}

func TestExecuteOrderBy(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 4})
	res, err := db.Execute(mustParse(t, "select top 20 x from t order by x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 20 {
		t.Fatalf("tuples = %d, want 20", len(res.Tuples))
	}
	for i := 1; i < len(res.Tuples); i++ {
		if res.Tuples[i][0] < res.Tuples[i-1][0] {
			t.Fatal("ascending order violated")
		}
	}
	// Top-20 ascending must be the 20 smallest values overall.
	xs := append([]float64(nil), db.columnValues("t", "x")...)
	sort.Float64s(xs)
	if res.Tuples[19][0] != xs[19] {
		t.Fatalf("20th value = %v, want %v (global sort before TOP)", res.Tuples[19][0], xs[19])
	}
}

func TestExecuteOrderByDesc(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{Seed: 4})
	res, err := db.Execute(mustParse(t, "select top 5 x from t order by x desc"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Tuples); i++ {
		if res.Tuples[i][0] > res.Tuples[i-1][0] {
			t.Fatal("descending order violated")
		}
	}
}

func TestReferencedColumnsIncludeGroupAndOrder(t *testing.T) {
	s := smallSchema()
	b, err := Bind(s, mustParse(t, "select count(*) from t group by k"))
	if err != nil {
		t.Fatal(err)
	}
	refs := b.ReferencedColumns()
	found := false
	for _, r := range refs {
		if r.Col != nil && r.Col.Name == "k" {
			found = true
		}
	}
	if !found {
		t.Fatal("group column missing from referenced columns")
	}
}

func TestExecuteGroupByOnEDR(t *testing.T) {
	db := mustOpen(t, catalog.EDR(), Config{Seed: 1, SampleEvery: 5000})
	res, err := db.Execute(mustParse(t, "select specclass, count(*), avg(z) from specobj group by specclass"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows < 2 || res.Rows > 7 {
		t.Fatalf("spec classes = %d, want 2..7", res.Rows)
	}
}
