package engine_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/workload"
)

// edrStatements parses the first n statements of the EDR stream under
// the given class mix (the zero Mix is the EDR profile's own).
func edrStatements(tb testing.TB, mix workload.Mix, n int) []*sqlparse.SelectStmt {
	tb.Helper()
	p := workload.EDRProfile()
	p.Mix = mix
	return streamStatements(tb, p, n)
}

func streamStatements(tb testing.TB, p workload.Profile, n int) []*sqlparse.SelectStmt {
	tb.Helper()
	st, err := workload.NewStream(p)
	if err != nil {
		tb.Fatal(err)
	}
	stmts := make([]*sqlparse.SelectStmt, n)
	for i := range stmts {
		sql := st.Next().SQL
		if stmts[i], err = sqlparse.Parse(sql); err != nil {
			tb.Fatalf("Parse(%q): %v", sql, err)
		}
	}
	return stmts
}

// edrDB opens EDR at one row in sampleEvery; 1000 is the database of
// the federation benchmark (bench/fed.go).
func edrDB(tb testing.TB, sampleEvery int64) *engine.DB {
	tb.Helper()
	db, err := engine.Open(catalog.EDR(), engine.Config{SampleEvery: sampleEvery, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// BenchmarkOpen synthesizes the federation benchmark's database: EDR
// at one row in 1000. One op is one Open, what every daemon start,
// benchmark set-up and test that opens a release pays.
func BenchmarkOpen(b *testing.B) {
	s := catalog.EDR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Open(s, engine.Config{SampleEvery: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

const benchStatements = 3000

var benchSink *engine.Result

// BenchmarkExecuteEDR is Execute (bind + execute) over the statements
// of the benchmark's traced pass; one op is one statement. "kept" never
// releases a result, as a caller that keeps its results does not;
// "released" gives each back before the next, as the daemons do; "sizes"
// binds and sizes each into a Result of its own (SizeInto), as
// Mediator.QueryStmt does. "sizes/scan", "sizes/join" and "sizes/group"
// are "sizes" over one shape of those statements each: ungrouped
// single-table, ungrouped two-table, and GROUP BY. "execute/join" binds
// and executes the two-table ones into a Result of its own
// (ExecuteInto) and releases it, as the daemons do on every statement
// they answer.
func BenchmarkExecuteEDR(b *testing.B) {
	db := edrDB(b, 1000)
	stmts := edrStatements(b, workload.Mix{}, benchStatements)
	shapes := map[string][]*sqlparse.SelectStmt{}
	for _, stmt := range stmts {
		bound, err := engine.Bind(db.Schema(), stmt)
		if err != nil {
			b.Fatal(err)
		}
		shape := "sizes/scan"
		switch {
		case bound.GroupBy != nil:
			shape = "sizes/group"
		case len(bound.Tables) == 2:
			shape = "sizes/join"
		}
		shapes[shape] = append(shapes[shape], stmt)
	}
	size := func(stmt *sqlparse.SelectStmt) error {
		bound, err := engine.Bind(db.Schema(), stmt)
		if err != nil {
			return err
		}
		benchSink = new(engine.Result)
		return db.SizeInto(benchSink, bound)
	}
	for _, bc := range []struct {
		name  string
		stmts []*sqlparse.SelectStmt
		op    func(*sqlparse.SelectStmt) error
	}{
		{"kept", stmts, func(stmt *sqlparse.SelectStmt) (err error) {
			benchSink, err = db.Execute(stmt)
			return err
		}},
		{"released", stmts, func(stmt *sqlparse.SelectStmt) (err error) {
			if benchSink, err = db.Execute(stmt); err == nil {
				benchSink.Release()
			}
			return err
		}},
		{"sizes", stmts, size},
		{"sizes/scan", shapes["sizes/scan"], size},
		{"sizes/join", shapes["sizes/join"], size},
		{"sizes/group", shapes["sizes/group"], size},
		{"execute/join", shapes["sizes/join"], func(stmt *sqlparse.SelectStmt) error {
			bound, err := engine.Bind(db.Schema(), stmt)
			if err != nil {
				return err
			}
			benchSink = new(engine.Result)
			if err = db.ExecuteInto(benchSink, bound); err == nil {
				benchSink.Release()
			}
			return err
		}},
	} {
		if len(bc.stmts) == 0 {
			b.Fatalf("%s: the stream has no such statement", bc.name)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.op(bc.stmts[i%len(bc.stmts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFilterSelectivity is one predicate pass over photoobj's
// 1 015 sampled rows (count(*): the scan and nothing after it) keeping
// about 1%, 50% and 99% of them, through each arm of the filter:
// between, a literal comparison, and two columns (a magnitude, uniform
// on 12–28, against another or against an error, uniform on 0–2: half,
// all or none). Each op is the next of a few dozen statements over
// different columns and windows, because a predictor learns one
// statement's thousand outcomes by heart when it is run again and again.
// The filter advances its count by the comparison's result, so the
// selectivities cost the same; a loop that branches on the comparison
// reads several times slower at 50% than at either end.
func BenchmarkFilterSelectivity(b *testing.B) {
	db := edrDB(b, 1000)
	var floats, mags, errs []catalog.Column
	for _, c := range db.Schema().Table("photoobj").Columns {
		if c.Type != catalog.Float32 && c.Type != catalog.Float64 {
			continue
		}
		floats = append(floats, c)
		switch {
		case c.Min == 12 && c.Max == 28:
			mags = append(mags, c)
		case c.Min == 0 && c.Max == 2:
			errs = append(errs, c)
		}
	}
	var names []string // sub-benchmarks, in the order they are first added to
	where := map[string][]string{}
	add := func(name, format string, args ...any) {
		if where[name] == nil {
			names = append(names, name)
		}
		where[name] = append(where[name], fmt.Sprintf(format, args...))
	}
	for _, pct := range []int{1, 50, 99} {
		frac := float64(pct) / 100
		for k, c := range floats {
			span := c.Max - c.Min
			lo := c.Min + (1-frac)*span*float64(k)/float64(len(floats))
			add(fmt.Sprintf("between/%dpct", pct), "%s between %g and %g", c.Name, lo, lo+frac*span)
			add(fmt.Sprintf("literal/%dpct", pct), "%s < %g", c.Name, c.Min+frac*span)
		}
	}
	for k, m := range mags {
		e := errs[k%len(errs)]
		add("columns/0pct", "%s < %s", m.Name, e.Name)
		add("columns/50pct", "%s < %s", m.Name, mags[(k+7)%len(mags)].Name)
		add("columns/100pct", "%s < %s", e.Name, m.Name)
	}
	for _, name := range names {
		bound := make([]*engine.Bound, len(where[name]))
		for i, w := range where[name] {
			stmt, err := sqlparse.Parse("select count(*) from photoobj where " + w)
			if err != nil {
				b.Fatal(err)
			}
			if bound[i], err = engine.Bind(db.Schema(), stmt); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := db.ExecuteBound(bound[i%len(bound)])
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
		})
	}
}

// TestExecuteAllocs gates the mean allocation count of Execute over
// the same list. The executor before it resolved columns at bind
// averaged 405; what is left is the bound statement (5: itself, its
// projections and their aggregates, its conditions, its referenced
// columns) and the result (4: itself, its column names, the tuples and
// their one array) — the vectors of the scan, the join and the sort are
// the pooled scratch's.
func TestExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is deliberately leaky under the race detector")
	}
	db := edrDB(t, 1000)
	stmts := edrStatements(t, workload.Mix{}, benchStatements)
	perPass := testing.AllocsPerRun(1, func() {
		for _, stmt := range stmts {
			if _, err := db.Execute(stmt); err != nil {
				t.Fatal(err)
			}
		}
	})
	mean := perPass / float64(len(stmts))
	t.Logf("%.1f allocs per statement", mean)
	if mean > 12 {
		t.Fatalf("Execute allocates %.1f times per statement on average, want <= 12", mean)
	}
}

// bytesPerStatement runs pass, which executes n statements, and returns
// the mean bytes allocated per statement (runtime.MemStats.TotalAlloc,
// which counts every allocation, freed or not).
func bytesPerStatement(n int, pass func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// boundStatements binds the benchmark's traced pass once, so that a
// pass over it measures ExecuteBound alone.
func boundStatements(tb testing.TB, db *engine.DB) []*engine.Bound {
	tb.Helper()
	stmts := edrStatements(tb, workload.Mix{}, benchStatements)
	bound := make([]*engine.Bound, len(stmts))
	for i, stmt := range stmts {
		var err error
		if bound[i], err = engine.Bind(db.Schema(), stmt); err != nil {
			tb.Fatal(err)
		}
	}
	return bound
}

// TestExecuteBytes gates bytes, which the count above does not see: a
// 64 x 24 result is two allocations and 12 KB. Before the executor's
// vectors and the tuples were pooled, ExecuteBound allocated 14 310
// bytes per statement of this list. Never released, a result now costs
// its tuples, its column names and itself (8 360 on average); released
// before the next statement runs, the names and itself (410).
func TestExecuteBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is deliberately leaky under the race detector")
	}
	db := edrDB(t, 1000)
	bound := boundStatements(t, db)
	pass := func(release bool) func() {
		return func() {
			for _, b := range bound {
				res, err := db.ExecuteBound(b)
				if err != nil {
					t.Fatal(err)
				}
				if release {
					res.Release()
				}
			}
		}
	}
	engine.DrainTuplePool()
	pass(false)() // warm the scratch pool
	kept := bytesPerStatement(len(bound), pass(false))
	pass(true)()
	released := bytesPerStatement(len(bound), pass(true))
	t.Logf("ExecuteBound allocates %.0f bytes per statement kept, %.0f released", kept, released)
	if kept > 10500 {
		t.Errorf("ExecuteBound allocates %.0f bytes per statement when results are kept, want <= 10500", kept)
	}
	if released > 520 {
		t.Errorf("ExecuteBound allocates %.0f bytes per statement when results are released, want <= 520", released)
	}
}

// TestReleaseIsOptional: a caller that never calls Release gets what it
// got before there was one. Its tuples come exactly sized out of fresh
// memory (an arena that doubled on growth once cost such a caller 43% of
// its throughput), they equal the tuples of a caller that releases, and
// it allocates no more per statement than it used to.
func TestReleaseIsOptional(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is deliberately leaky under the race detector")
	}
	engine.PoisonReleased(t)
	db := edrDB(t, 1000)
	bound := boundStatements(t, db)

	engine.DrainTuplePool()
	kept := make([]*engine.Result, len(bound))
	bytes := bytesPerStatement(len(bound), func() {
		for i, b := range bound {
			var err error
			if kept[i], err = db.ExecuteBound(b); err != nil {
				t.Fatal(err)
			}
		}
	})
	for i, res := range kept {
		cells := 0
		for _, tuple := range res.Tuples {
			cells += len(tuple)
		}
		if flat, rows := engine.TupleCaps(res); flat != cells || rows != len(res.Tuples) {
			t.Fatalf("statement %d: %d cells in %d tuples were cut from memory for %d cells and %d tuples",
				i, cells, len(res.Tuples), flat, rows)
		}
	}
	// What newTuples, the selection vector and the projection list cost
	// the parent of this change, over this list: 14 310 bytes.
	if bytes > 14310 {
		t.Errorf("never releasing costs %.0f bytes per statement, want no more than the 14310 it used to", bytes)
	}

	for i, b := range bound {
		res, err := db.ExecuteBound(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResults(res, kept[i]); err != nil {
			t.Fatalf("statement %d, released after use: %v", i, err)
		}
		res.Release()
		if res.Tuples != nil {
			t.Fatalf("statement %d: Tuples survive Release", i)
		}
		res.Release() // and again: nothing left to give back
	}
	// Every kept result is still what it was: no later execution was
	// handed its memory.
	for i, b := range bound {
		want, err := engine.ReferenceExecute(db, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResults(kept[i], want); err != nil {
			t.Fatalf("statement %d, kept across %d releases: %v", i, len(bound), err)
		}
		if i == 300 {
			break // the reference evaluator is slow; 300 cover every statement class
		}
	}
}

// TestReleasePoisonsAndPoolsBoundedMemory shows the two things the tests
// above rely on. With the hook on, tuples read after Release are NaN.
// And the pool keeps memory up to a fixed size only: after a result
// above it is released, the next one is cut from fresh memory, exactly
// sized, where after an ordinary one it is cut from that one's.
func TestReleasePoisonsAndPoolsBoundedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is deliberately leaky under the race detector")
	}
	engine.PoisonReleased(t)
	// Every sampled photoobj row may come back: 2 537 rows of 38 columns
	// are above the bound, 64 of them below.
	big, err := engine.Open(catalog.EDR(), engine.Config{SampleEvery: 400, Seed: 1, MaxResultRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	small := edrDB(t, 1000)
	execute := func(db *engine.DB, sql string) *engine.Result {
		t.Helper()
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	engine.DrainTuplePool()
	res := execute(small, "select * from photoobj")
	held := res.Tuples
	flat, _ := engine.TupleCaps(res)
	res.Release()
	for r, tuple := range held {
		for c, v := range tuple {
			if !math.IsNaN(v) {
				t.Fatalf("tuple %d value %d reads %v after Release, want NaN", r, c, v)
			}
		}
	}
	next := execute(small, "select ra, dec from photoobj")
	if got, _ := engine.TupleCaps(next); got != flat {
		t.Fatalf("after a %d-cell result was released, the next was cut from memory for %d cells, want the released memory", flat, got)
	}
	for r, tuple := range next.Tuples {
		for c, v := range tuple {
			if math.IsNaN(v) {
				t.Fatalf("tuple %d value %d of a result cut from released memory is NaN", r, c)
			}
		}
	}

	engine.DrainTuplePool()
	res = execute(big, "select * from photoobj")
	if flat, _ = engine.TupleCaps(res); flat <= engine.MaxPooledElems {
		t.Fatalf("the large result has %d cells, want more than the %d the pool keeps", flat, engine.MaxPooledElems)
	}
	res.Release()
	next = execute(small, "select ra, dec from photoobj")
	if got, _ := engine.TupleCaps(next); got != 2*len(next.Tuples) {
		t.Fatalf("after a %d-cell result was released, the next was cut from memory for %d cells, want fresh memory for its %d",
			flat, got, 2*len(next.Tuples))
	}
}
