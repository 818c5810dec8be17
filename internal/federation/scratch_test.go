package federation_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/sqlparse"
)

// sitesDown is a SiteHealth whose answer the test sets between
// statements.
type sitesDown map[string]string

func (d sitesDown) SiteAvailable(site string) (bool, string) {
	reason, down := d[site]
	return !down, reason
}

// sameList is reflect.DeepEqual for two lists, one of which may be nil
// where the other is empty: a Scratch's lists keep their memory.
func sameList(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Len() == 0 && vb.Len() == 0 || reflect.DeepEqual(a, b)
}

// sameBound compares two bindings of one statement against one schema,
// field for field, through the pointers.
func sameBound(a, b *engine.Bound) error {
	if a.Stmt.String() != b.Stmt.String() {
		return fmt.Errorf("statement %q, want %q", a.Stmt, b.Stmt)
	}
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"Tables", a.Tables, b.Tables}, {"TablePos", a.TablePos, b.TablePos},
		{"Projs", a.Projs, b.Projs}, {"ProjAggs", a.ProjAggs, b.ProjAggs},
		{"Conds", a.Conds, b.Conds}, {"ReferencedColumns", a.ReferencedColumns(), b.ReferencedColumns()},
	} {
		if !sameList(f.a, f.b) {
			return fmt.Errorf("%s = %+v, want %+v", f.name, f.a, f.b)
		}
	}
	if a.Schema != b.Schema || a.Star != b.Star || a.OrderDesc != b.OrderDesc ||
		!reflect.DeepEqual(a.GroupBy, b.GroupBy) || !reflect.DeepEqual(a.OrderBy, b.OrderBy) {
		return fmt.Errorf("schema, star, group by or order by differ: %+v, want %+v", a, b)
	}
	return nil
}

// sameSizes compares what a result says besides its tuples.
func sameSizes(a, b *engine.Result) error {
	if !reflect.DeepEqual(a.Columns, b.Columns) || a.Rows != b.Rows || a.Bytes != b.Bytes || a.SampleMatches != b.SampleMatches {
		return fmt.Errorf("columns, rows, bytes, matches = %v, %d, %d, %d, want %v, %d, %d, %d",
			a.Columns, a.Rows, a.Bytes, a.SampleMatches, b.Columns, b.Rows, b.Bytes, b.SampleMatches)
	}
	return nil
}

// sameTuples compares the tuples of two results bit for bit (a tuple may
// hold a NaN).
func sameTuples(a, b *engine.Result) error {
	if len(a.Tuples) != len(b.Tuples) || (a.Tuples == nil) != (b.Tuples == nil) {
		return fmt.Errorf("%d tuples (nil: %t), want %d (nil: %t)", len(a.Tuples), a.Tuples == nil, len(b.Tuples), b.Tuples == nil)
	}
	for r := range a.Tuples {
		if len(a.Tuples[r]) != len(b.Tuples[r]) {
			return fmt.Errorf("tuple %d has %d values, want %d", r, len(a.Tuples[r]), len(b.Tuples[r]))
		}
		for c := range a.Tuples[r] {
			if math.Float64bits(a.Tuples[r][c]) != math.Float64bits(b.Tuples[r][c]) {
				return fmt.Errorf("tuple %d value %d = %v, want %v", r, c, a.Tuples[r][c], b.Tuples[r][c])
			}
		}
	}
	return nil
}

// sameReport compares everything of two reports but the timings, the
// binding and the tuples.
func sameReport(got, want *federation.QueryReport) error {
	if got.SQL != want.SQL || got.Seq != want.Seq || got.Degraded != want.Degraded {
		return fmt.Errorf("sql, seq, degraded = %q, %d, %t, want %q, %d, %t", got.SQL, got.Seq, got.Degraded, want.SQL, want.Seq, want.Degraded)
	}
	if !reflect.DeepEqual(got.Decisions, want.Decisions) {
		return fmt.Errorf("decisions %+v, want %+v", got.Decisions, want.Decisions)
	}
	if !reflect.DeepEqual(got.SiteErrors, want.SiteErrors) {
		return fmt.Errorf("site errors %+v, want %+v", got.SiteErrors, want.SiteErrors)
	}
	return sameSizes(got.Result, want.Result)
}

// TestScratchReportsWhatQueryStmtReports is the differential test of
// the one implementation behind the two ways in: the 3 000 statements of
// the federation benchmark's traced pass go as text through
// QueryScratch in one Scratch — scrambled and released after every
// statement, as the wire tests scramble a serving connection's — and,
// parsed by the caller, through MediateTraced on a twin mediator, which
// sizes each in a pooled Scratch, scrambled as it goes back (TestMain),
// and keeps the report copied out of it. Statement for statement the two
// reports must be equal field for field — result, decisions in order,
// Seq, the degraded annotations of a stretch during which a site is down
// — but for the binding, which QueryScratch's report must carry as the
// caller's own binding of the statement reads and the twin's must not
// carry, and the tuples, which the twin's report must not have and
// QueryScratch's must have exactly as the engine executes that binding;
// and this including after statements that fail to parse, to bind and
// to execute in the same Scratch, which must fail alike. At the end the
// two mediators have the same accounting, ledger and journal: nothing
// either kept pointed into a Scratch, or the scrambling would show in
// it.
func TestScratchReportsWhatQueryStmtReports(t *testing.T) {
	sqls := edrStatements(t, 3000)
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{SampleEvery: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	failing := []string{
		"select ra from", // does not parse
		"select ghost from photoobj where ra < 10",                                    // does not bind
		"select ra, count(*) from photoobj where ra < 10",                             // does not execute
		"select a.ra from photoobj a, photoobj b, photoobj c where a.objid = b.objid", // nor does this
	}
	for _, gran := range []federation.Granularity{federation.Columns, federation.Tables, federation.Views} {
		t.Run(gran.String(), func(t *testing.T) {
			type side struct {
				m       *federation.Mediator
				ledger  *ledger.Ledger
				journal journalKeeper
			}
			down := sitesDown{}
			var scratch, twin side
			for _, sd := range []*side{&scratch, &twin} {
				sd.ledger = ledger.New(1 << 16)
				sd.m, err = federation.New(federation.Config{
					Schema: s, Engine: db, Granularity: gran,
					NewPolicy: func(_ int, c int64) (core.Policy, error) { return core.NewPolicyByName("rate-profile", c, 1) },
					Capacity:  int64(0.4 * float64(s.TotalBytes())),
					Obs:       obs.NewRegistry(), Ledger: sd.ledger, Shadows: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				sd.m.SetJournal(&sd.journal)
				sd.m.SetHealth(down)
			}
			var sc federation.Scratch
			var forced, failed int
			for i, sql := range sqls {
				if i%500 == 250 {
					for _, bad := range failing {
						_, gotErr := scratch.m.QueryScratch(&sc, bad, "", nil)
						_, wantErr := twin.m.Query(bad)
						if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
							t.Fatalf("%s: in a scratch %v, fresh %v", bad, gotErr, wantErr)
						}
						sc.Scramble()
					}
				}
				switch i {
				case 1000:
					down["spec.sdss.org"] = "breaker open site=spec.sdss.org"
				case 1100:
					down["photo.sdss.org"] = "breaker open site=photo.sdss.org"
				case 1200:
					clear(down)
				}
				trace := ""
				if i%7 == 0 {
					trace = obs.FormatID(uint64(i + 1))
				}
				got, err := scratch.m.QueryScratch(&sc, sql, trace, nil)
				if err != nil {
					t.Fatalf("statement %d: %s: %v", i, sql, err)
				}
				stmt, err := sqlparse.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				want, err := twin.m.MediateTraced(sql, stmt, trace)
				if err != nil {
					t.Fatalf("statement %d: %s: %v", i, sql, err)
				}
				if err := sameReport(got, want); err != nil {
					t.Fatalf("statement %d: %s: in a scratch: %v", i, sql, err)
				}
				if want.Result.Tuples != nil || want.Bound != nil {
					t.Fatalf("statement %d: %s: sized, the report has %d tuples and binding %v", i, sql, len(want.Result.Tuples), want.Bound)
				}
				bound, err := engine.Bind(s, stmt)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBound(got.Bound, bound); err != nil {
					t.Fatalf("statement %d: %s: in a scratch: %v", i, sql, err)
				}
				executed, err := db.ExecuteBound(bound)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTuples(got.Result, executed); err != nil {
					t.Fatalf("statement %d: %s: in a scratch: %v", i, sql, err)
				}
				for _, d := range got.Decisions {
					if d.Forced {
						forced++
					}
					if d.Failed {
						failed++
					}
				}
				sc.Scramble()
				sc.Release()
			}
			if forced == 0 || failed == 0 {
				t.Errorf("%d forced and %d failed accesses: the outage exercised neither or only one", forced, failed)
			}
			if got, want := scratch.m.Accounting(), twin.m.Accounting(); got != want {
				t.Errorf("accounting %+v, want %+v", got, want)
			}
			if got, want := scratch.ledger.Snapshot(), twin.ledger.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("the ledgers differ: %d records, want %d", len(got), len(want))
			}
			if got, want := scratch.journal.recs, twin.journal.recs; !reflect.DeepEqual(got, want) {
				t.Errorf("the journals differ: %d records, want %d", len(got), len(want))
			}
		})
	}
}

// flapping is a SiteHealth under which the spec site is down for 64 of
// every 128 questions asked about it. It is safe for concurrent use.
type flapping struct{ asked atomic.Int64 }

func (f *flapping) SiteAvailable(site string) (bool, string) {
	if site == catalog.SiteSpec && f.asked.Add(1)/64%2 == 1 {
		return false, "breaker open site=" + site
	}
	return true, ""
}

// deepCopy copies a report and everything it points to.
func deepCopy(rep *federation.QueryReport) *federation.QueryReport {
	c := *rep
	c.Decisions = slices.Clone(rep.Decisions)
	c.SiteErrors = slices.Clone(rep.SiteErrors)
	c.Result = &engine.Result{
		Columns: slices.Clone(rep.Result.Columns), Rows: rep.Result.Rows, Bytes: rep.Result.Bytes,
		SampleMatches: rep.Result.SampleMatches,
	}
	if rep.Result.Tuples != nil {
		c.Result.Tuples = make([][]float64, len(rep.Result.Tuples))
		for r, tuple := range rep.Result.Tuples {
			c.Result.Tuples[r] = slices.Clone(tuple)
		}
	}
	return &c
}

// TestReportsOwnTheirMemory: a report of QueryStmt owns every slice it
// holds. Four callers run QueryStmt over the EDR stream at once, the
// spec site flapping, in Scratches the pool scrambles as they go back
// (TestMain). Each keeps every report and a deep copy taken on return;
// once all are done, every report must still equal its copy — tuples
// bit for bit, binding and timings included — no two reports may share
// a list, a Result or themselves, and the reports' Seq must be the plane
// clock's ticks 1 to n, each once.
func TestReportsOwnTheirMemory(t *testing.T) {
	const callers = 4
	m, sqls, stmts := benchFederation(t)
	n := len(stmts)
	if raceEnabled || testing.Short() {
		n = 800
	}
	m.SetHealth(&flapping{})
	type kept struct{ rep, copy *federation.QueryReport }
	reports := make([][]kept, callers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				rep, err := m.QueryStmt(sqls[i], stmts[i])
				if err != nil {
					t.Errorf("%s: %v", sqls[i], err)
					return
				}
				reports[c] = append(reports[c], kept{rep, deepCopy(rep)})
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	owner := map[any]int64{} // a pointer a report holds → the report's Seq
	seqs := make([]bool, n+1)
	var degraded int
	for _, rs := range reports {
		for _, k := range rs {
			rep := k.rep
			if err := sameReport(rep, k.copy); err != nil {
				t.Fatalf("report %d (%s): %v", k.copy.Seq, k.copy.SQL, err)
			}
			if err := sameTuples(rep.Result, k.copy.Result); err != nil {
				t.Fatalf("report %d (%s): %v", k.copy.Seq, k.copy.SQL, err)
			}
			if rep.Bound != nil || rep.Shipped || rep.ExecUS != k.copy.ExecUS ||
				rep.LockWaitUS != k.copy.LockWaitUS || rep.DecideUS != k.copy.DecideUS {
				t.Fatalf("report %d (%s): binding, shipped or timings changed: %+v, copied %+v", k.copy.Seq, k.copy.SQL, rep, k.copy)
			}
			if rep.Seq < 1 || rep.Seq > int64(n) || seqs[rep.Seq] {
				t.Fatalf("report of %s: Seq %d is out of 1..%d or seen before", rep.SQL, rep.Seq, n)
			}
			seqs[rep.Seq] = true
			held := []any{rep, rep.Result}
			if len(rep.Decisions) > 0 {
				held = append(held, &rep.Decisions[0])
			}
			if len(rep.SiteErrors) > 0 {
				held = append(held, &rep.SiteErrors[0])
				degraded++
			}
			if len(rep.Result.Columns) > 0 {
				held = append(held, &rep.Result.Columns[0])
			}
			for _, p := range held {
				if other, ok := owner[p]; ok {
					t.Fatalf("reports %d and %d share %T %p", other, rep.Seq, p, p)
				}
				owner[p] = rep.Seq
			}
		}
	}
	if degraded == 0 || degraded == n {
		t.Errorf("%d of %d reports are degraded: the flapping site exercised too little", degraded, n)
	}
}

// TestPoolDropsAWideScratch: a Scratch whose lists grew past
// MaxPooledLen is not given back to the pool, and one that did not is.
// With the pool drained, the statement after a wide one needs a new
// Scratch, and of ten narrow statements in a row some reuse one.
func TestPoolDropsAWideScratch(t *testing.T) {
	s, db := openEDR(t)
	m, err := federation.New(federation.Config{Schema: s, Engine: db, Granularity: federation.Columns})
	if err != nil {
		t.Fatal(err)
	}
	// A pool keeps one Scratch per P out of the other Ps' reach, so only
	// on one P does draining it leave nothing this goroutine can be
	// handed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var made atomic.Int64
	defer federation.PoolScratch(func() *federation.Scratch { made.Add(1); return new(federation.Scratch) }, false)()
	query := func(sql string) {
		t.Helper()
		if _, err := m.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	const narrow = "select ra from photoobj where ra < 1"
	wide := "select " + strings.Repeat("ra, ", federation.MaxPooledLen) + "dec from photoobj where ra < 1"
	federation.DrainScratchPool()
	query(wide)
	query(narrow)
	if got := made.Load(); got != 2 {
		t.Fatalf("a wide and a narrow statement after the pool was drained made %d Scratches, want 2: the wide one's was pooled", got)
	}
	federation.DrainScratchPool()
	for range 10 {
		query(narrow)
	}
	if got := made.Load() - 2; got == 10 {
		t.Fatalf("ten narrow statements made %d Scratches: none was pooled", got)
	}
}
