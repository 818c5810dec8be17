package sqlparse_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"bypassyield/internal/sqlparse"
	"bypassyield/internal/workload"
)

// population is one of the federation benchmark's statement streams:
// the first 12 000 statements of the EDR profile under a class mix, as
// bench/workloads.go draws them before a run.
type population struct {
	name string
	sqls []string
}

var (
	populationsOnce sync.Once
	populations     []population
	populationsErr  error
)

// benchPopulations draws the EDR default mix and the point-bypass mix
// once per test binary.
func benchPopulations(tb testing.TB) []population {
	tb.Helper()
	populationsOnce.Do(func() {
		for _, c := range []struct {
			name string
			mix  workload.Mix
		}{{"edr", workload.Mix{}}, {"point", workload.Mix{Identity: .5, Spatial: .3, Aggregate: .2}}} {
			p := workload.EDRProfile()
			p.Mix = c.mix
			st, err := workload.NewStream(p)
			if err != nil {
				populationsErr = err
				return
			}
			sqls := make([]string, 12000)
			for i := range sqls {
				sqls[i] = st.Next().SQL
			}
			populations = append(populations, population{c.name, sqls})
		}
	})
	if populationsErr != nil {
		tb.Fatal(populationsErr)
	}
	return populations
}

// perStatement runs pass once to warm whatever is reused, then three
// times more, and returns the least any of those allocated per
// statement: what the statements cost, not an allocation the runtime
// made meanwhile. The collector is off and there is one P, as
// testing.AllocsPerRun has: a collection empties every sync.Pool, and a
// goroutine moved to another P finds that P's pool empty, and a Parser
// made anew then is not the statements' cost either.
func perStatement(pass func(), statements int) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pass()
	var mallocs, total uint64 = math.MaxUint64, math.MaxUint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		total = min(total, after.TotalAlloc-before.TotalAlloc)
	}
	n := float64(statements)
	return float64(mallocs) / n, float64(total) / n
}

// TestParseAllocs gates what reading a statement allocates over both
// benchmark populations. Parse copies the statement out of a pooled
// Parser into exact-size memory: the statement with its GROUP BY and
// ORDER BY, the projections, the tables, and the conditions with the
// columns their right-hand sides point to — four allocations at most,
// none for a string of lower-case text. A Parser reused on them
// allocates nothing once its lists have grown.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and drops pooled Parsers")
	}
	for _, pop := range benchPopulations(t) {
		allocs, bytes := perStatement(func() {
			for _, sql := range pop.sqls {
				if _, err := sqlparse.Parse(sql); err != nil {
					t.Fatal(err)
				}
			}
		}, len(pop.sqls))
		t.Logf("%s: Parse %.2f allocs and %.0f bytes per statement", pop.name, allocs, bytes)
		if allocs > 4 {
			t.Errorf("%s: Parse allocates %.2f times per statement on average, want <= 4", pop.name, allocs)
		}
		if bytes > 800 {
			t.Errorf("%s: Parse allocates %.0f bytes per statement on average, want <= 800", pop.name, bytes)
		}
		var p sqlparse.Parser
		reused, _ := perStatement(func() {
			for _, sql := range pop.sqls {
				if _, err := p.Parse(sql); err != nil {
					t.Fatal(err)
				}
			}
		}, 1)
		if reused != 0 {
			t.Errorf("%s: a reused Parser allocates %.0f times over %d statements, want 0", pop.name, reused, len(pop.sqls))
		}
	}
}

// TestParseConcurrently: callers of Parse on several goroutines share
// its pool of Parsers, never a Parser, and each keeps statements of its
// own. Four goroutines parse a population each (the benchmark's mixes,
// twice) and keep what they read; every statement, once all have
// finished, still renders as the text it was read from, which the
// generator printed.
func TestParseConcurrently(t *testing.T) {
	pops := benchPopulations(t)
	kept := make([][]*sqlparse.SelectStmt, 4)
	var wg sync.WaitGroup
	for g := range kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sqls := pops[g%len(pops)].sqls[:3000]
			for _, sql := range sqls {
				stmt, err := sqlparse.Parse(sql)
				if err != nil {
					t.Error(err)
					return
				}
				kept[g] = append(kept[g], stmt)
			}
		}()
	}
	wg.Wait()
	for g, stmts := range kept {
		for i, stmt := range stmts {
			if want := pops[g%len(pops)].sqls[i]; stmt.String() != want {
				t.Fatalf("goroutine %d, statement %d: read %q, renders %q", g, i, want, stmt)
			}
		}
	}
}

// BenchmarkParse reads the benchmark populations' statements in stream
// order, one op a statement: new is Parse, the path of a caller that
// keeps its statements (tables-replay parses 12 000 during set-up);
// reused is one Parser's Parse, the path of a serving connection.
func BenchmarkParse(b *testing.B) {
	for _, pop := range benchPopulations(b) {
		b.Run(pop.name+"/new", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sqlparse.Parse(pop.sqls[i%len(pop.sqls)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(pop.name+"/reused", func(b *testing.B) {
			var p sqlparse.Parser
			for _, sql := range pop.sqls {
				p.Parse(sql)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Parse(pop.sqls[i%len(pop.sqls)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
