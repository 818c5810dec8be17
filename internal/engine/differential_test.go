package engine_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/workload"
)

// sameResults compares two results field for field, floats by their
// bits (so NaN equals NaN and -0 differs from +0) and nil tuples from
// empty ones.
func sameResults(got, want *engine.Result) error {
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		return fmt.Errorf("Columns = %q, want %q", got.Columns, want.Columns)
	}
	if got.Rows != want.Rows || got.Bytes != want.Bytes || got.SampleMatches != want.SampleMatches {
		return fmt.Errorf("Rows, Bytes, SampleMatches = %d, %d, %d, want %d, %d, %d",
			got.Rows, got.Bytes, got.SampleMatches, want.Rows, want.Bytes, want.SampleMatches)
	}
	if len(got.Tuples) != len(want.Tuples) || (got.Tuples == nil) != (want.Tuples == nil) {
		return fmt.Errorf("%d tuples (nil: %t), want %d (nil: %t)",
			len(got.Tuples), got.Tuples == nil, len(want.Tuples), want.Tuples == nil)
	}
	for r := range want.Tuples {
		if len(got.Tuples[r]) != len(want.Tuples[r]) {
			return fmt.Errorf("tuple %d has %d values, want %d", r, len(got.Tuples[r]), len(want.Tuples[r]))
		}
		for c, w := range want.Tuples[r] {
			if g := got.Tuples[r][c]; math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("tuple %d value %d = %v (%#x), want %v (%#x)",
					r, c, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return nil
}

// againstReference binds stmt, runs it through ExecuteBound and through
// the reference evaluator, and reports how they differ: both must fail
// with the same error or return the same result. The result is released
// once compared, so the next statement's tuples are cut from this one's
// memory — NaN in every cell when the caller switched the poison on.
// The statement is also sized (SizeInto) into a result that held
// another's columns, counts and tuples: it must fail with the same
// error, or hold the reference's columns and counts and no tuples. Both
// are run on each path of the first predicate pass (FilterPaths).
func againstReference(db *engine.DB, stmt *sqlparse.SelectStmt) error {
	b, err := engine.Bind(db.Schema(), stmt)
	if err != nil {
		return fmt.Errorf("bind: %w", err)
	}
	want, werr := engine.ReferenceExecute(db, b)
	engine.FilterPaths(func(path string) {
		if err == nil {
			if err = executedAsReference(db, b, want, werr); err != nil {
				err = fmt.Errorf("%s: %w", path, err)
			}
		}
	})
	return err
}

// executedAsReference is againstReference's check of one path.
func executedAsReference(db *engine.DB, b *engine.Bound, want *engine.Result, werr error) error {
	got, gerr := db.ExecuteBound(b)
	sized := &engine.Result{
		Columns: []string{"held", "before", "sizing", "this", "statement"},
		Rows:    -1, Bytes: -1, SampleMatches: -1,
		Tuples: [][]float64{{1, 2}},
	}
	if serr := db.SizeInto(sized, b); (serr == nil) != (werr == nil) || serr != nil && serr.Error() != werr.Error() {
		return fmt.Errorf("sized: error = %v, reference's = %v", serr, werr)
	}
	if gerr != nil || werr != nil {
		var ee *engine.ExecError
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() || !errors.As(gerr, &ee) {
			return fmt.Errorf("error = %v, reference's = %v", gerr, werr)
		}
		return nil
	}
	defer got.Release()
	if err := sameResults(got, want); err != nil {
		return err
	}
	sizes := *want
	sizes.Tuples = nil
	if err := sameResults(sized, &sizes); err != nil {
		return fmt.Errorf("sized: %w", err)
	}
	return nil
}

// scaled shortens a statement count under the race detector, where the
// reference evaluator runs several times slower still.
func scaled(n int) int {
	if raceEnabled || testing.Short() {
		return n / 8
	}
	return n
}

// TestExecuteBoundEqualsReferenceOnStreams holds ExecuteBound to the
// row-at-a-time evaluator it replaced over the statements the
// federation benchmark sends (bench/workloads.go: the EDR stream and
// the point-bypass mix, on the benchmark's database) and a DR1 stream.
func TestExecuteBoundEqualsReferenceOnStreams(t *testing.T) {
	engine.PoisonReleased(t)
	dr1 := workload.DR1Profile()
	dr1DB, err := engine.Open(dr1.Schema, engine.Config{SampleEvery: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bench := edrDB(t, 1000)
	for _, tc := range []struct {
		name  string
		db    *engine.DB
		stmts []*sqlparse.SelectStmt
	}{
		{"edr", bench, edrStatements(t, workload.Mix{}, scaled(12000))},
		{"point-bypass", bench, edrStatements(t, workload.Mix{Identity: .5, Spatial: .3, Aggregate: .2}, scaled(12000))},
		{"dr1", dr1DB, streamStatements(t, dr1, scaled(6000))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, stmt := range tc.stmts {
				if err := againstReference(tc.db, stmt); err != nil {
					t.Fatalf("statement %d, %s: %v", i, stmt, err)
				}
			}
		})
	}
}

// pairSchema has a 1000-row table with a key, a float and a 10-valued
// int, and a 100-row table with a foreign key into it.
func pairSchema() *catalog.Schema {
	return &catalog.Schema{Name: "pair", Tables: []catalog.Table{
		{Name: "t", Rows: 1000, Site: "a", Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int64, Min: 0, Max: 1000, Key: true},
			{Name: "x", Type: catalog.Float64, Min: 0, Max: 100},
			{Name: "k", Type: catalog.Int16, Min: 0, Max: 9},
		}},
		{Name: "u", Rows: 100, Site: "b", Columns: []catalog.Column{
			{Name: "uid", Type: catalog.Int64, Min: 0, Max: 100, Key: true},
			{Name: "tid", Type: catalog.Int64, Min: 0, Max: 1000},
			{Name: "y", Type: catalog.Float32, Min: 0, Max: 100},
			{Name: "j", Type: catalog.Int16, Min: 0, Max: 9},
		}},
	}}
}

// nanSchema synthesizes what arithmetic on real columns never would: a
// column of NaNs and a column of +Inf (as in wire's
// TestNaNResultReachesClient), beside ordinary ones.
func nanSchema() *catalog.Schema {
	cols := func(key string) []catalog.Column {
		return []catalog.Column{
			{Name: key, Type: catalog.Int64, Max: 40, Key: true},
			{Name: "flux", Type: catalog.Float64, Min: math.NaN(), Max: math.NaN()},
			{Name: "err", Type: catalog.Float64, Min: 1, Max: math.Inf(1)},
			{Name: "k", Type: catalog.Int16, Min: 0, Max: 3},
		}
	}
	return &catalog.Schema{Name: "nan", Tables: []catalog.Table{
		{Name: "t", Rows: 40, Site: "nan.site", Columns: cols("id")},
		{Name: "u", Rows: 30, Site: "nan.site", Columns: cols("uid")},
	}}
}

func TestExecuteBoundEqualsReferenceByHand(t *testing.T) {
	engine.PoisonReleased(t)
	pair := []string{
		// Scans: no predicate, no match, every operator, column to column.
		"select x from t",
		"select * from t",
		"select top 3 * from t",
		"select x from t where x < -1",
		"select id, x from t where x < k",
		"select * from t where x > k and k <> 3 and id >= 10 and x <= 90 and k = k",
		"select x as pos, k from t where x between 20 and 30 and k between 2 and 5",
		"select x from t where id = 42",
		"select x from t where k >= x",
		// Joins: one and two keys, an extra comparison written from
		// either side, the smaller (hashed) side first or second in FROM,
		// before and after a predicate changes which one it is.
		"select y from t, u where tid = id",
		"select y from u, t where tid = id",
		"select y from u, t where id = tid",
		"select * from t, u where tid = id and x < 5",
		"select * from u, t where tid = id and x < 5",
		"select x, y from t, u where k = j",
		"select x, y from t, u where k = j and tid = id",
		"select x, y from t, u where j = k and id = uid",
		"select x, y from t, u where tid = id and y < x",
		"select x, y from t, u where tid = id and x > y",
		"select x, y from t, u where k = j and y <= x and uid <> id and x < 50",
		"select x, y from t a, u b where b.tid = a.id and b.y >= a.x",
		"select top 7 a.x, b.x from t a, t b where a.k = b.k and a.id = b.id",
		"select top 9 a.id, b.id from t a, t b where a.k = b.k", // sides of equal size
		"select y from t, u where tid = id and x < -1",
		// ORDER BY and TOP: ties keep match order.
		"select top 5 x from t order by x desc",
		"select top 20 x, k from t order by k",
		"select x, k from t where x < 30 order by k desc",
		"select top 10 x, y from t, u where tid = id order by y desc",
		"select top 10 x, y, j from u, t where tid = id order by j",
		"select * from t order by x",
		// GROUP BY: a key (scaled), a low-cardinality column (not), with
		// and without a join, with TOP.
		"select id, count(*) from t group by id",
		"select top 5 id, count(*), sum(x) from t where x > 90 group by id",
		"select k, count(*), avg(x), min(x), max(x), sum(x) from t where x < 50 group by k",
		"select k from t group by k",
		"select x, count(*), sum(k) from t group by x",
		"select top 3 k, count(*) from t group by k",
		"select k, count(*), sum(y), max(x) from t, u where tid = id group by k",
		"select j, avg(x) from u, t where tid = id group by j",
		"select k, count(*) from t where x < -1 group by k",
		// Aggregates.
		"select count(*), avg(x), min(x), max(x), sum(k) from t",
		"select count(*), avg(x), min(x), max(x), sum(x) from t where x < -1",
		"select count(x), sum(y) as total from t, u where tid = id",
		// What the executor refuses.
		"select x, y from t, u",
		"select x, y from t, u where y < x",
		"select k, count(*) from t",
		"select x, y from t, u where tid = id and uid = id and y = x",
		"select a.x from t a, u, t b where u.tid = a.id and b.id = a.id",
	}
	nan := []string{
		"select flux, err from t",
		"select * from t where flux < 1",
		"select * from t where flux <> 1",
		"select id from t where flux = flux",
		"select id from t where err > 5 and err = err",
		"select id from t where err between 1 and 2",
		"select flux, count(*), sum(k) from t group by flux",
		"select top 4 flux, count(*) from t group by flux",
		"select err, count(*), min(flux), max(err) from t group by err",
		"select k, sum(flux), avg(err), min(flux), max(flux) from t group by k",
		"select top 9 id, flux from t order by flux",
		"select id, flux, k from t order by flux desc",
		"select id, err, k from t order by err desc",
		"select sum(flux), avg(flux), min(flux), max(flux), sum(err), min(err) from t",
		"select id, uid from t, u where t.flux = u.flux",
		"select id, uid from t, u where t.err = u.err and t.k = u.k",
		"select id, uid from t, u where t.k = u.k and t.flux <> u.flux",
		"select id, uid from t, u where t.k = u.k and t.flux < u.flux",
		"select t.k, count(*), sum(u.err) from t, u where t.k = u.k group by t.k",
	}
	// What synthesis never puts in one column: NaNs and infinities among
	// numbers (an ORDER BY whose less is no order at all, group and join
	// keys that equal nothing) and both zeros (equal, yet two spellings
	// of one group or join key).
	negZero := math.Copysign(0, -1)
	mixed := func(db *engine.DB) {
		for row, v := range map[int]float64{3: math.NaN(), 17: math.NaN(), 500: math.NaN(), 999: math.NaN(),
			5: 0, 9: negZero, 11: math.Inf(1), 13: math.Inf(-1), 640: math.Inf(1)} {
			engine.Poke(db, "t", "x", row, v)
		}
		for row, v := range map[int]float64{0: negZero, 2: 0, 400: math.NaN(), 401: math.NaN(), 997: 0, 998: negZero} {
			engine.Poke(db, "t", "k", row, v)
		}
		for row, v := range map[int]float64{1: negZero, 7: 0, 8: math.NaN(), 50: negZero, 51: math.NaN()} {
			engine.Poke(db, "u", "j", row, v)
		}
		for row, v := range map[int]float64{4: math.NaN(), 6: negZero, 60: math.Inf(-1)} {
			engine.Poke(db, "u", "y", row, v)
		}
	}
	for _, tc := range []struct {
		schema *catalog.Schema
		cfg    engine.Config
		poke   func(*engine.DB)
		sqls   []string
	}{
		{pairSchema(), engine.Config{Seed: 3}, nil, pair},
		{pairSchema(), engine.Config{Seed: 4, SampleEvery: 10, MaxResultRows: 7}, nil, pair},
		{pairSchema(), engine.Config{Seed: 5, MaxResultRows: 1000}, mixed, pair},
		{nanSchema(), engine.Config{Seed: 1}, nil, nan},
	} {
		db, err := engine.Open(tc.schema, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc.poke != nil {
			tc.poke(db)
		}
		for _, sql := range tc.sqls {
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatalf("Parse(%q): %v", sql, err)
			}
			if err := againstReference(db, stmt); err != nil {
				t.Errorf("%s at 1/%d: %s: %v", tc.schema.Name, db.SampleEvery(), sql, err)
			}
		}
	}
}

// TestDenseJoinEqualsReference holds the join on a dense key (a column
// whose row i holds i·SampleEvery, whose row a value is found at by
// arithmetic) to the reference evaluator, executed and sized: with the
// dense side built and probed, on one key and on two with the dense one
// first and second, with extra comparisons, TOP, ORDER BY ties, GROUP BY
// and truncated tuples, with both sides dense, and with foreign keys
// poked to what the grid never holds: NaN, -0, values off the grid or
// halfway between two rows, negative, at and past the table's end, and
// infinite.
func TestDenseJoinEqualsReference(t *testing.T) {
	engine.PoisonReleased(t)
	sqls := []string{
		// t (1 000 rows) is larger than u (100): the dense side probes.
		"select y, x, id, tid from t, u where tid = id",
		"select * from u, t where id = tid",
		"select top 5 id, y from t, u where tid = id",
		"select top 10 k, y, tid from t, u where tid = id order by k",
		"select top 10 k, y, uid from u, t where tid = id order by k desc",
		"select k, count(*), sum(y), max(x) from t, u where tid = id group by k",
		"select count(*), avg(y), min(tid) from u, t where tid = id",
		// x < 5 leaves t smaller than u: the dense side is built.
		"select y, x, tid from t, u where tid = id and x < 5",
		"select * from u, t where x < 5 and id = tid",
		"select top 3 k, y from t, u where tid = id and x < 10 order by k",
		"select j, count(*) from u, t where tid = id and x < 10 group by j",
		// Two keys, the dense one first and second.
		"select x, y from t, u where tid = id and k = j",
		"select x, y from t, u where k = j and tid = id",
		"select x, y, j from u, t where j = k and id = tid and x < 20",
		// Extra comparisons, written from either side.
		"select x, y from t, u where tid = id and y < x",
		"select x, y from u, t where id = tid and x > y and x < 30",
		"select id, uid from t, u where tid = id and uid <> id",
		"select count(*) from t, u where tid = id and y >= x",
		// Both sides dense, and a dense key against a column off its grid.
		"select x, y from t, u where uid = id",
		"select a.x, b.x from t a, t b where a.id = b.id and a.x < 50",
		"select top 9 a.id, a.k, b.x from t a, t b where b.id = a.id and b.x < 30 order by a.k",
		"select x, j from t, u where id = j",
		"select x, y from u, t where j = id and k < 4",
	}
	negZero := math.Copysign(0, -1)
	sides := map[string]int{}
	for _, cfg := range []engine.Config{
		{Seed: 3},
		{Seed: 4, SampleEvery: 4, MaxResultRows: 7},
		{Seed: 5, SampleEvery: 7, MaxResultRows: 1000},
	} {
		db, err := engine.Open(pairSchema(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]string{engine.DenseColumn(db, "t"), engine.DenseColumn(db, "u")}; got != [2]string{"id", "uid"} {
			t.Fatalf("at 1/%d the dense columns are %q, want id and uid", db.SampleEvery(), got)
		}
		every, end := float64(db.SampleEvery()), float64(db.SampleRows("t"))*float64(db.SampleEvery())
		for row, v := range []float64{math.NaN(), negZero, 0, 2.5 * every, -every, end, end + 3*every,
			end - every, end - every/2, every / 2, math.Inf(1), math.Inf(-1), 1e300} {
			engine.Poke(db, "u", "tid", row, v)
		}
		for _, sql := range sqls {
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatalf("Parse(%q): %v", sql, err)
			}
			b, err := engine.Bind(db.Schema(), stmt)
			if err != nil {
				t.Fatalf("Bind(%q): %v", sql, err)
			}
			dense, build, err := engine.JoinSides(db, b)
			switch {
			case err != nil || dense < 0:
				t.Errorf("%s: not joined on a dense key (side %d, %v)", sql, dense, err)
			case dense == build:
				sides["built"]++
			default:
				sides["probed"]++
			}
			if err := againstReference(db, stmt); err != nil {
				t.Errorf("at 1/%d: %s: %v", db.SampleEvery(), sql, err)
			}
		}
	}
	if sides["built"] < 10 || sides["probed"] < 10 {
		t.Errorf("the dense side was built in %d joins and probed in %d: the list lost an orientation", sides["built"], sides["probed"])
	}
}

// TestPokedKeyIsNotJoinedByArithmetic: a dense key poked off its grid —
// to another row's key, to NaN, to -0 — is no longer dense, so joins on
// it go back to hashing and still find every match; the reference says
// which. A stale flag would find one of two rows with the same key.
// Poked to -0 at row 0, a key stays dense: -0 equals the 0 it replaced.
func TestPokedKeyIsNotJoinedByArithmetic(t *testing.T) {
	engine.PoisonReleased(t)
	var joins []*sqlparse.SelectStmt
	for _, sql := range []string{
		"select p.objid, p.ra, n.distance from photoobj p, neighbors n where p.objid = n.objid",
		"select n.distance, p.objid from neighbors n, photoobj p where n.objid = p.objid and p.ra < 200",
		"select p.objid, s.z from specobj s, photoobj p where p.objid = s.objid",
		"select s.z, p.objid from photoobj p, specobj s where s.objid = p.objid and p.ra < 20",
		"select count(*) from photoobj p, neighbors n where p.objid = n.objid",
		"select top 5 p.objid, n.objid from photoobj p, neighbors n where n.objid = p.objid order by p.objid desc",
		"select p.type, count(*) from photoobj p, neighbors n where p.objid = n.objid group by p.type",
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		joins = append(joins, stmt)
	}
	for _, stmt := range edrStatements(t, workload.Mix{}, scaled(2000)) {
		if len(stmt.From) == 2 {
			joins = append(joins, stmt)
		}
	}
	const row = 7 // the poked photoobj row
	for _, tc := range []struct {
		name string
		key  func(every float64) float64 // the row's new objid, and what a neighbor and a spectrum point at
	}{
		{"duplicate", func(every float64) float64 { return 3 * every }},
		{"NaN", func(float64) float64 { return math.NaN() }},
		{"-0", func(float64) float64 { return math.Copysign(0, -1) }},
	} {
		for _, at := range []int{row, 0} {
			db := edrDB(t, 5000)
			if got := engine.DenseColumn(db, "photoobj"); got != "objid" {
				t.Fatalf("photoobj's dense column is %q, want objid", got)
			}
			v := tc.key(float64(db.SampleEvery()))
			engine.Poke(db, "photoobj", "objid", at, v)
			engine.Poke(db, "neighbors", "objid", 0, v)
			engine.Poke(db, "neighbors", "objid", 1, 0)
			engine.Poke(db, "specobj", "objid", 0, v)
			want := at == 0 && v == 0 // -0 in row 0 keeps the key on its grid

			if got := engine.DenseColumn(db, "photoobj") == "objid"; got != want {
				t.Errorf("%s at row %d: photoobj.objid dense = %t, want %t", tc.name, at, got, want)
			}
			for _, stmt := range joins {
				if err := againstReference(db, stmt); err != nil {
					t.Fatalf("%s at row %d: %s: %v", tc.name, at, stmt, err)
				}
			}
		}
	}
}
