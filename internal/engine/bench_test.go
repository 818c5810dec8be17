package engine_test

import (
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

const benchStatements = 3000

var benchSink *engine.Result

// BenchmarkExecuteEDR is Execute (bind + execute) over the statements
// of the benchmark's traced pass; one op is one statement.
func BenchmarkExecuteEDR(b *testing.B) {
	db := edrDB(b, 1000)
	stmts := edrStatements(b, workload.Mix{}, benchStatements)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Execute(stmts[i%len(stmts)])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

// TestExecuteAllocs gates the mean allocation count of Execute over
// the same list. The executor before it resolved columns at bind
// averaged 405; what is left is the result itself (tuples share one
// array), the selection vector, the bound statement and the join table.
func TestExecuteAllocs(t *testing.T) {
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
	if mean > 80 {
		t.Fatalf("Execute allocates %.1f times per statement on average, want <= 80", mean)
	}
}
