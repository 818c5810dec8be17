package federation_test

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/workload"
)

// recordSink keeps every record the ledger hands its sink, in order.
type recordSink struct{ recs []ledger.DecisionRecord }

func (s *recordSink) Record(r ledger.DecisionRecord) { s.recs = append(s.recs, r) }

// TestFlushPerQueryLeavesWhatPerAccessDid: the mediator flushes its
// bookkeeping once per query; after every query the observers must
// read what per-access bookkeeping would have left. Checked after each
// of 2 000 EDR statements, registry and ledger on:
//
//   - the registry's flow counters equal Mediator.Accounting();
//   - the ledger's new records are core.DecisionRecordFor applied
//     access by access by a reference policy run in lockstep — every
//     field — with contiguous Seq, through the sink and in the ring;
//   - the savings gauge equals always-bypass's WAN less the realized,
//     D_A − D_S − D_L, of the reference decisions' accounting charged
//     access by access.
func TestFlushPerQueryLeavesWhatPerAccessDid(t *testing.T) {
	n := 2000
	if raceEnabled || testing.Short() {
		n = 400
	}
	sqls := edrStatements(t, n)
	const trace = "00000000000000ab"
	for _, c := range []struct {
		policy string
		gran   federation.Granularity
	}{
		{"rate-profile", federation.Columns},
		{"online-by", federation.Tables},
	} {
		t.Run(c.policy+"/"+c.gran.String(), func(t *testing.T) {
			s, db := openEDR(t)
			capacity := s.TotalBytes() * 4 / 10
			const seed = 7
			pol, err := core.NewPolicyByName(c.policy, capacity, seed)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			led := ledger.New(4096)
			sink := &recordSink{}
			led.SetSink(sink.Record)
			m, err := federation.New(federation.Config{
				Schema: s, Engine: db, Granularity: c.gran, Policy: pol,
				Obs: reg, Ledger: led,
			})
			if err != nil {
				t.Fatal(err)
			}
			objects := m.Objects()

			refPolicy, err := core.NewPolicyByName(c.policy, capacity, seed)
			if err != nil {
				t.Fatal(err)
			}
			var refAcct core.Accounting // the reference decisions' flows

			var seen [3]bool
			for qi, sql := range sqls {
				stmt, err := sqlparse.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				before := len(sink.recs)
				rep, err := m.MediateTraced(sql, stmt, trace)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}

				// The decomposition the mediator decided over is the
				// reference's.
				b, err := engine.Bind(s, stmt)
				if err != nil {
					t.Fatal(err)
				}
				want := federation.ReferenceDecompose(b, s.Name, rep.Result.Bytes, c.gran)
				if len(want) != len(rep.Decisions) {
					t.Fatalf("query %d: %d decisions, reference decomposes to %d accesses", qi, len(rep.Decisions), len(want))
				}

				// Ledger: one record per access, as the per-access loop
				// builds them.
				got := sink.recs[before:]
				if len(got) != len(rep.Decisions) {
					t.Fatalf("query %d: %d new ledger records for %d decisions", qi, len(got), len(rep.Decisions))
				}
				for i, d := range rep.Decisions {
					if d.Object != want[i].Object || d.Yield != want[i].Yield {
						t.Fatalf("query %d access %d: decided %s/%d, reference access %+v", qi, i, d.Object, d.Yield, want[i])
					}
					obj := objects[d.Object]
					refD := refPolicy.Access(rep.Seq, obj, d.Yield)
					if refD != d.Decision {
						t.Fatalf("query %d access %d: mediator decided %s, reference policy %s", qi, i, d.Decision, refD)
					}
					seen[refD] = true
					rec := core.DecisionRecordFor(rep.Seq, refPolicy, trace, obj, d.Yield, refD)
					rec.Seq = uint64(before + i + 1)
					if got[i] != rec {
						t.Fatalf("query %d access %d: ledger record\n %+v\nper-access reference\n %+v", qi, i, got[i], rec)
					}
					if err := core.Account(&refAcct, obj, d.Yield, refD); err != nil {
						t.Fatal(err)
					}
				}
				if led.Count() != uint64(len(sink.recs)) {
					t.Fatalf("query %d: ledger counts %d records, sink saw %d", qi, led.Count(), len(sink.recs))
				}

				// Registry against the accounting, both read after the
				// query returned.
				acct := m.Accounting()
				snap := reg.Snapshot()
				for name, wantV := range map[string]int64{
					"core.yield_bytes":  acct.YieldBytes,
					"core.cache_bytes":  acct.CacheBytes,
					"core.bypass_bytes": acct.BypassBytes,
					"core.fetch_bytes":  acct.FetchBytes,
					"core.accesses":     acct.Accesses,
				} {
					if v := snap.CounterValue(name, ""); v != wantV {
						t.Fatalf("query %d: %s = %d, accounting says %d", qi, name, v, wantV)
					}
				}
				for verdict, wantV := range map[string]int64{"hit": acct.Hits, "bypass": acct.Bypasses, "load": acct.Loads} {
					if v := snap.CounterValue("core.decisions", c.policy+"/"+verdict); v != wantV {
						t.Fatalf("query %d: core.decisions{%s} = %d, accounting says %d", qi, verdict, v, wantV)
					}
				}
				if v := snap.CounterValue("federation.objects_touched", ""); v != acct.Accesses {
					t.Fatalf("query %d: federation.objects_touched = %d, accesses %d", qi, v, acct.Accesses)
				}
				if acct.Queries != int64(qi+1) || acct.DeliveredBytes() != acct.YieldBytes {
					t.Fatalf("query %d: accounting %+v", qi, acct)
				}

				// Savings against the reference charged access by access.
				if got, want := snap.GaugeValue("core.bytes_saved_vs_bypass"), refAcct.YieldBytes-refAcct.WANBytes(); got != want {
					t.Fatalf("query %d: core.bytes_saved_vs_bypass = %d, the reference reads %d", qi, got, want)
				}
			}
			if !seen[core.Hit] || !seen[core.Bypass] || !seen[core.Load] {
				t.Fatalf("the statements do not exercise every decision: %v", seen)
			}
			// The ring holds the newest records, the same ones.
			ring := led.Snapshot()
			if len(ring) != min(led.Cap(), len(sink.recs)) || !reflect.DeepEqual(ring, sink.recs[len(sink.recs)-len(ring):]) {
				t.Fatalf("ring holds %d records (cap %d, %d recorded) that differ from the sink's newest", len(ring), led.Cap(), len(sink.recs))
			}
			if h, ok := reg.Snapshot().HistogramSnap("core.decide_seconds", ""); !ok || h.Count != m.Accounting().Accesses {
				t.Fatalf("core.decide_seconds has %d observations for %d policy accesses", h.Count, m.Accounting().Accesses)
			}
		})
	}
}

// TestShadowsCoverTheAccessesSinceStart is the restart contract of the
// savings figure: it covers every access since the stream's start, as
// D_S and D_L do, restored and replayed ones included. A live mediator
// snapshots at statement 500 and journals 501–1 000. A fresh one
// restores the snapshot and replays the journal, so it stands where the
// live one stopped at statement 1 000, then serves 1 001–2 000. Right
// after the replay and after each of those statements its
// core.bytes_saved_vs_bypass must read D_A − D_S − D_L of its whole
// accounting, off the registry's own flow counters too, and never the
// since-restart window, which leaves the restored traffic out.
func TestShadowsCoverTheAccessesSinceStart(t *testing.T) {
	sqls := edrStatements(t, 2000)
	s, db := openEDR(t)
	build := func(reg *obs.Registry) *federation.Mediator {
		pol, err := core.NewPolicyByName("rate-profile", s.TotalBytes()*4/10, 7)
		if err != nil {
			t.Fatal(err)
		}
		m, err := federation.New(federation.Config{
			Schema: s, Engine: db, Granularity: federation.Columns, Policy: pol, Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(m *federation.Mediator, sqls []string) {
		t.Helper()
		for _, sql := range sqls {
			if _, err := m.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}

	live := build(nil)
	run(live, sqls[:500])
	st, err := live.SnapshotState(nil)
	if err != nil {
		t.Fatal(err)
	}
	var wal journalKeeper
	live.SetJournal(&wal)
	run(live, sqls[500:1000])

	reg := obs.NewRegistry()
	m := build(reg)
	if err := m.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for _, rec := range wal.recs {
		if applied, diverged, err := m.ReplayJournal(rec); err != nil || !applied || diverged {
			t.Fatalf("replaying %+v: applied %t, diverged %t, %v", rec, applied, diverged, err)
		}
	}
	atRestart := m.Accounting()
	if atRestart != live.Accounting() {
		t.Fatalf("restored and replayed accounting %+v, live %+v", atRestart, live.Accounting())
	}
	if st.Acct.WANBytes() == 0 || atRestart.WANBytes() == st.Acct.WANBytes() {
		t.Fatalf("WAN %d in the snapshot, %d after the journal: both must move some", st.Acct.WANBytes(), atRestart.WANBytes())
	}

	check := func(where string) {
		t.Helper()
		acct, snap := m.Accounting(), reg.Snapshot()
		saved := snap.GaugeValue("core.bytes_saved_vs_bypass")
		if want := acct.YieldBytes - acct.WANBytes(); saved != want {
			t.Fatalf("%s: core.bytes_saved_vs_bypass = %d, the accounting reads D_A − D_S − D_L = %d", where, saved, want)
		}
		yield, bypass, fetch := snap.CounterValue("core.yield_bytes", ""), snap.CounterValue("core.bypass_bytes", ""), snap.CounterValue("core.fetch_bytes", "")
		if saved != yield-bypass-fetch {
			t.Fatalf("%s: core.bytes_saved_vs_bypass %d != core.yield_bytes %d − core.bypass_bytes %d − core.fetch_bytes %d",
				where, saved, yield, bypass, fetch)
		}
		since := (acct.YieldBytes - atRestart.YieldBytes) - (acct.WANBytes() - atRestart.WANBytes())
		if saved == since {
			t.Fatalf("%s: core.bytes_saved_vs_bypass %d reads only the accesses since the restart", where, saved)
		}
	}
	if atRestart.YieldBytes == atRestart.WANBytes() {
		t.Fatalf("the first 1 000 statements saved nothing against always-bypass (D_A %d = WAN %d): the window is not tested",
			atRestart.YieldBytes, atRestart.WANBytes())
	}
	check("after the replay")
	for i, sql := range sqls[1000:] {
		if _, err := m.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		check(fmt.Sprintf("statement %d", 1001+i))
	}
}

// benchFederation is the mediator of the federation benchmark's
// edr-cached workload (bench/fed.go): EDR at one row in a thousand,
// rate-profile at 40% of the release, column objects, registry and
// ledger on.
func benchFederation(tb testing.TB) (*federation.Mediator, []string, []*sqlparse.SelectStmt) {
	tb.Helper()
	return benchFederationAt(tb, federation.Columns)
}

// benchFederationAt is benchFederation with objects of granularity g:
// at Tables, the mediator of the benchmark's tables-replay.
func benchFederationAt(tb testing.TB, g federation.Granularity) (*federation.Mediator, []string, []*sqlparse.SelectStmt) {
	tb.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{SampleEvery: 1000, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := federation.New(federation.Config{
		Schema: s, Engine: db, Granularity: g,
		NewPolicy: func(_ int, c int64) (core.Policy, error) { return core.NewPolicyByName("rate-profile", c, 1) },
		Capacity:  int64(0.4 * float64(s.TotalBytes())),
		Obs:       obs.NewRegistry(),
		Ledger:    ledger.New(4096),
	})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := workload.NewStream(workload.EDRProfile())
	if err != nil {
		tb.Fatal(err)
	}
	sqls := make([]string, 3000)
	stmts := make([]*sqlparse.SelectStmt, len(sqls))
	for i := range sqls {
		sqls[i] = st.Next().SQL
		if stmts[i], err = sqlparse.Parse(sqls[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return m, sqls, stmts
}

// runCallers splits n statements of benchFederation's, taken in order
// from one shared cursor, among callers goroutines that each call
// QueryStmt in a closed loop, and returns what the process's goroutines
// waited for locks meanwhile (/sync/mutex/wait/total:seconds).
func runCallers(tb testing.TB, m *federation.Mediator, sqls []string, stmts []*sqlparse.SelectStmt, callers, n int) time.Duration {
	tb.Helper()
	wait := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(wait)
	before := wait[0].Value.Float64()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if _, err := m.QueryStmt(sqls[i%len(sqls)], stmts[i%len(stmts)]); err != nil {
					tb.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	metrics.Read(wait)
	return time.Duration((wait[0].Value.Float64() - before) * float64(time.Second))
}

// zeroScratch gives Query and QueryStmt the pool they have outside the
// tests (see TestMain) until the test or benchmark ends — a zero Scratch
// when it is empty, and no scrambling — so what they allocate and how
// long they take is what is measured.
func zeroScratch(tb testing.TB) {
	tb.Cleanup(federation.PoolScratch(func() *federation.Scratch { return new(federation.Scratch) }, false))
}

// BenchmarkMediatorQueryEDR is Mediator.QueryStmt — bind, size,
// decompose, decide, flush, copy the report out — over the statements of
// the benchmark's traced pass, pre-parsed; one op is one statement. Four
// callers on one P and on two say whether the decision plane gains from
// a second CPU (lock-wait-us/op is runCallers' figure per statement);
// GOMAXPROCS is part of the name because -cpu would give both runs one
// key in BENCH_obs.json. tables is the benchmark's tables-replay: one
// caller at table granularity. scratch is what a serving connection does
// instead: one caller's QueryScratch — the parse too — in one Scratch,
// released after every statement; decide-us/op is its reports'
// DecideUS, the decision hold as the live proxy reports it.
func BenchmarkMediatorQueryEDR(b *testing.B) {
	zeroScratch(b)
	for _, bc := range []struct {
		name           string
		callers, procs int
		gran           federation.Granularity
	}{
		{"callers=1", 1, 0, federation.Columns},
		{"callers=4/procs=1", 4, 1, federation.Columns},
		{"callers=4/procs=2", 4, 2, federation.Columns},
		{"tables", 1, 0, federation.Tables},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bc.procs))
			}
			m, sqls, stmts := benchFederationAt(b, bc.gran)
			b.ReportAllocs()
			b.ResetTimer()
			wait := runCallers(b, m, sqls, stmts, bc.callers, b.N)
			b.ReportMetric(float64(wait.Microseconds())/float64(b.N), "lock-wait-us/op")
		})
	}
	b.Run("scratch", func(b *testing.B) {
		m, sqls, _ := benchFederation(b)
		var sc federation.Scratch
		var decideUS int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := m.QueryScratch(&sc, sqls[i%len(sqls)], "", nil)
			if err != nil {
				b.Fatal(err)
			}
			decideUS += rep.DecideUS
			sc.Release()
		}
		b.ReportMetric(float64(decideUS)/float64(b.N), "decide-us/op")
	})
}

// BenchmarkDecideLoop is the decision hold without the mediator around
// it: a core.Decider as the mediator builds one — rate-profile, a
// ledger of 4 096 records, telemetry — over the accesses the 3 000
// statements of benchFederation decompose into, each object the
// mediator's own. One op is one statement's Begin, Access per access and
// End. A first pass warms the policy before the clock starts.
func BenchmarkDecideLoop(b *testing.B) {
	m, sqls, stmts := benchFederation(b)
	objects := m.Objects()
	type access struct {
		obj   core.Object
		yield int64
	}
	queries := make([][]access, len(sqls))
	for i := range sqls {
		rep, err := m.QueryStmt(sqls[i], stmts[i])
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range rep.Decisions {
			queries[i] = append(queries[i], access{objects[d.Object], d.Yield})
		}
	}
	total := m.Schema().TotalBytes()
	for _, bc := range []struct {
		name     string
		cachePct float64
	}{{"cache=40%", 0.4}, {"cache=0.1%", 0.001}} {
		b.Run(bc.name, func(b *testing.B) {
			pol, err := core.NewPolicyByName("rate-profile", int64(bc.cachePct*float64(total)), 1)
			if err != nil {
				b.Fatal(err)
			}
			d := core.NewDecider(pol, core.NewTelemetry(obs.NewRegistry()), ledger.New(4096))
			t := int64(0)
			query := func(q []access) {
				t++
				d.Begin(t, "")
				for _, a := range q {
					if _, err := d.Access(a.obj, a.yield); err != nil {
						b.Fatal(err)
					}
				}
				d.End()
			}
			for _, q := range queries {
				query(q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(queries[i%len(queries)])
			}
		})
	}
}

// perStatement runs pass twice — once to warm the cache and whatever
// memory is reused — and returns what the second cost per statement.
func perStatement(pass func(), statements int) (allocs, bytes float64) {
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	n := float64(statements)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestQueryStmtAllocs gates what QueryStmt — the path of a caller that
// keeps its reports, the federation benchmark's tables-replay among them
// — allocates per statement over the same statements, after one pass has
// warmed the cache, in count and in bytes. What is left is the report
// the caller keeps: one block for the report and its Result, the
// decisions, the column names, and the name of an aggregate's output
// column. The Scratch the statement is mediated in is the pool's, and
// nothing is allocated per access, for the ledger, whose records are
// written into its ring, or for tuples: the statement is sized, not
// materialized. Both bounds are some 30% above the reading (3.1 and
// 1 820–1 860 bytes).
func TestQueryStmtAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	zeroScratch(t)
	m, sqls, stmts := benchFederation(t)
	allocs, bytes := perStatement(func() {
		for i, stmt := range stmts {
			if _, err := m.QueryStmt(sqls[i], stmt); err != nil {
				t.Fatal(err)
			}
		}
	}, len(stmts))
	t.Logf("%.1f allocs and %.0f bytes per statement", allocs, bytes)
	if allocs > 4 {
		t.Errorf("QueryStmt allocates %.1f times per statement on average, want <= 4", allocs)
	}
	if bytes > 2400 {
		t.Errorf("QueryStmt allocates %.0f bytes per statement on average, want <= 2400", bytes)
	}
}

// TestQueryScratchAllocs gates the other path, a serving connection's:
// the same statements as text through QueryScratch in one Scratch,
// released after each. Once the Scratch has seen the widest statement
// nothing of a statement outlives it but what is built for it: the name
// of an aggregate's output column (one statement in seven has some).
func TestQueryScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	m, sqls, _ := benchFederation(t)
	var sc federation.Scratch
	allocs, bytes := perStatement(func() {
		for _, sql := range sqls {
			if _, err := m.QueryScratch(&sc, sql, "", nil); err != nil {
				t.Fatal(err)
			}
			sc.Release()
		}
	}, len(sqls))
	t.Logf("%.2f allocs and %.0f bytes per statement", allocs, bytes)
	if allocs > 2 {
		t.Errorf("QueryScratch allocates %.2f times per statement on average, want <= 2", allocs)
	}
	if bytes > scratchByteBound {
		t.Errorf("QueryScratch allocates %.0f bytes per statement on average, want <= %d", bytes, scratchByteBound)
	}
}

// scratchByteBound is some 40% above what TestQueryScratchAllocs reads
// after the package's other tests (46 to 56 bytes; 18 run alone): the
// count is the process's, aggregate names and all.
const scratchByteBound = 80
