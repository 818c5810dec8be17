package federation_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/workload"
)

// edrStatements draws the first n statements of the EDR workload.
func edrStatements(t *testing.T, n int) []string {
	t.Helper()
	st, err := workload.NewStream(workload.EDRProfile())
	if err != nil {
		t.Fatal(err)
	}
	sqls := make([]string, n)
	for i := range sqls {
		sqls[i] = st.Next().SQL
	}
	return sqls
}

func openEDR(t *testing.T) (*catalog.Schema, *engine.DB) {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 20000})
	if err != nil {
		t.Fatal(err)
	}
	return s, db
}

// TestDecisionsDoNotDependOnGOMAXPROCS runs the same statements from
// one caller on one core and on four, configured the way the benchmark
// configures its mediators (NewPolicy and Capacity, Shards left 0). The
// cache is one cache of 40% of the release whatever the host: the flows
// and the cached set are identical, and photoobj (25.6% of the release)
// is cached — it fits no slice of a cache split in two or more.
func TestDecisionsDoNotDependOnGOMAXPROCS(t *testing.T) {
	sqls := edrStatements(t, 3000)
	type outcome struct {
		Acct   core.Accounting
		Cached []core.ObjectID
	}
	run := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, db := openEDR(t)
		capacity := s.TotalBytes() * 4 / 10
		built := 0
		m, err := federation.New(federation.Config{
			Schema: s, Engine: db, Granularity: federation.Tables,
			NewPolicy: func(shard int, c int64) (core.Policy, error) {
				built++
				if shard != 0 || c != capacity {
					t.Errorf("NewPolicy(%d, %d), want (0, %d)", shard, c, capacity)
				}
				return core.NewPolicyByName("rate-profile", c, 1)
			},
			Capacity: capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		if built != 1 {
			t.Fatalf("NewPolicy called %d times, want once", built)
		}
		for _, sql := range sqls {
			if _, err := m.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		r := m.Read(ledger.Query{})
		sort.Slice(r.Contents, func(i, j int) bool { return r.Contents[i] < r.Contents[j] })
		return outcome{r.Acct, r.Contents}
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("GOMAXPROCS changed the outcome:\n 1: %+v\n 4: %+v", one, four)
	}
	photoobj := federation.TableObjectID("edr", "photoobj")
	i := sort.Search(len(one.Cached), func(i int) bool { return one.Cached[i] >= photoobj })
	if i == len(one.Cached) || one.Cached[i] != photoobj {
		t.Fatalf("photoobj is not cached: %v", one.Cached)
	}
}

// TestMediatorDecidesLikeSimulator is the differential test between the
// live decision path and the reference one: the statements go through
// Mediator.QueryStmt, and the accesses it decomposed them into go, as
// core.Requests numbered by the plane clock, through core.Simulator
// over a fresh policy of the same name, capacity and seed. Every access
// must be decided alike and the accounting must be identical. The
// mediator is configured the way the benchmark configures its own
// (NewPolicy and Capacity, Shards left 0), which a host with more than
// one core used to turn into several caches no simulator run matches.
func TestMediatorDecidesLikeSimulator(t *testing.T) {
	sqls := edrStatements(t, 2000)
	stmts := make([]*sqlparse.SelectStmt, len(sqls))
	for i, sql := range sqls {
		var err error
		if stmts[i], err = sqlparse.Parse(sql); err != nil {
			t.Fatal(err)
		}
	}
	type decided struct {
		T      int64
		Object string
		Yield  int64
		Action string
	}
	type config struct {
		gran    federation.Granularity
		name    string
		percent int64 // of the release: at 40 nothing is ever evicted, at 10 thousands are
	}
	var configs []config
	for _, gran := range []federation.Granularity{federation.Tables, federation.Columns} {
		for _, name := range []string{"rate-profile", "online-by", "space-eff-by"} {
			configs = append(configs, config{gran, name, 40})
		}
	}
	configs = append(configs, config{federation.Columns, "rate-profile", 10}, config{federation.Columns, "online-by", 10})
	for _, c := range configs {
		gran, name := c.gran, c.name
		title := gran.String() + "/" + name
		if c.percent != 40 {
			title += fmt.Sprintf("/%d%%", c.percent)
		}
		t.Run(title, func(t *testing.T) {
			s, db := openEDR(t)
			capacity := s.TotalBytes() * c.percent / 100
			const seed = 7
			m, err := federation.New(federation.Config{
				Schema: s, Engine: db, Granularity: gran, Capacity: capacity,
				NewPolicy: func(_ int, c int64) (core.Policy, error) { return core.NewPolicyByName(name, c, seed) },
			})
			if err != nil {
				t.Fatal(err)
			}
			var reqs []core.Request
			var live []decided
			for i, sql := range sqls {
				rep, err := m.QueryStmt(sql, stmts[i])
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				req := core.Request{Seq: rep.Seq}
				for _, d := range rep.Decisions {
					req.Accesses = append(req.Accesses, core.Access{Object: d.Object, Yield: d.Yield})
					live = append(live, decided{rep.Seq, string(d.Object), d.Yield, d.Decision.String()})
				}
				reqs = append(reqs, req)
			}

			fresh, err := core.NewPolicyByName(name, capacity, seed)
			if err != nil {
				t.Fatal(err)
			}
			led := ledger.New(len(live))
			sim := core.Simulator{Policy: fresh, Objects: m.Objects(), Ledger: led}
			res, err := sim.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			recs := led.Snapshot()
			if len(recs) != len(live) {
				t.Fatalf("simulator decided %d accesses, mediator %d", len(recs), len(live))
			}
			for i, r := range recs {
				if ref := (decided{r.T, r.Object, r.Yield, r.Action}); ref != live[i] {
					t.Fatalf("access %d: simulator %+v, mediator %+v", i, ref, live[i])
				}
			}
			if ev := m.Policy().Evictions(); res.Acct.Evictions != ev {
				t.Fatalf("simulator evicted %d, mediator's policy %d", res.Acct.Evictions, ev)
			}
			want := res.Acct
			if got := m.Accounting(); got != want {
				t.Fatalf("mediator accounting %+v, simulator %+v", got, want)
			}
			if want.Hits == 0 || want.Loads == 0 || want.Bypasses == 0 || (c.percent < 40 && want.Evictions == 0) {
				t.Fatalf("trace does not exercise every decision: %+v", want)
			}
		})
	}
}

// journalKeeper is a Journal that keeps what it is given.
type journalKeeper struct{ recs []federation.JournalRecord }

func (k *journalKeeper) JournalAccess(rec federation.JournalRecord) { k.recs = append(k.recs, rec) }

// TestEvictionsAreAccounted: Accounting.Evictions is the mediator's to
// fill, like every other field — equal to the policy's own count and to
// the core.evictions counter while it runs, and after a restart from a
// snapshot plus journal. The snapshot is restored twice: as written, and
// as a build from before the mediator counted evictions wrote it, with 0
// in the accounting beside a policy blob that knows better.
func TestEvictionsAreAccounted(t *testing.T) {
	sqls := edrStatements(t, 2000)
	build := func() (*federation.Mediator, *obs.Registry) {
		s, db := openEDR(t)
		reg := obs.NewRegistry()
		m, err := federation.New(federation.Config{
			Schema: s, Engine: db, Granularity: federation.Columns, Capacity: s.TotalBytes() / 10, Obs: reg,
			NewPolicy: func(_ int, c int64) (core.Policy, error) { return core.NewPolicyByName("rate-profile", c, 7) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, reg
	}
	check := func(what string, m *federation.Mediator, reg *obs.Registry, want int64) {
		t.Helper()
		acct, policy := m.Accounting().Evictions, m.Policy().Evictions()
		counter := reg.Snapshot().CounterValue("core.evictions", "rate-profile")
		if acct != policy || counter != policy || (want >= 0 && acct != want) {
			t.Fatalf("%s: Accounting.Evictions %d, the policy's %d, core.evictions %d (want %d)", what, acct, policy, counter, want)
		}
	}
	run := func(m *federation.Mediator, sqls []string) {
		t.Helper()
		for _, sql := range sqls {
			if _, err := m.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}

	live, liveReg := build()
	run(live, sqls[:1000])
	check("live, at the snapshot", live, liveReg, -1)
	st, err := live.SnapshotState(nil)
	if err != nil {
		t.Fatal(err)
	}
	atSnapshot := st.Acct.Evictions
	var wal journalKeeper
	live.SetJournal(&wal)
	run(live, sqls[1000:])
	check("live, at the end", live, liveReg, -1)
	want := live.Accounting()
	if atSnapshot == 0 || want.Evictions == atSnapshot {
		t.Fatalf("evictions: %d at the snapshot, %d at the end; the trace must evict on both sides of it", atSnapshot, want.Evictions)
	}

	older := st
	older.Acct.Evictions = 0
	for name, snap := range map[string]federation.State{"as written": st, "written before evictions were counted": older} {
		m, reg := build()
		if err := m.RestoreState(snap); err != nil {
			t.Fatal(err)
		}
		check(name+", restored", m, reg, atSnapshot)
		for _, rec := range wal.recs {
			if applied, diverged, err := m.ReplayJournal(rec); err != nil || !applied || diverged {
				t.Fatalf("%s: replaying %+v: applied %t, diverged %t, %v", name, rec, applied, diverged, err)
			}
		}
		check(name+", replayed", m, reg, want.Evictions)
		if got := m.Accounting(); got != want {
			t.Fatalf("%s: recovered accounting %+v, live %+v", name, got, want)
		}
	}
}

// TestReplayChargesTheRecordedDecision: a journal record is charged as
// recorded, whatever the policy re-decides. A record whose decision is
// not the one this build's policy takes (a journal written by a build
// whose policy decided otherwise, as GDS did before its loads were
// inserted at the raised inflation value) is applied and reported
// diverged, not refused; the policy's own state follows its own
// decision. GDS loads every object on its first access, so a first
// access recorded as a bypass diverges and the next, recorded as a hit,
// agrees; the cacheless policy bypasses everything, so a recorded load
// diverges and a recorded bypass agrees.
func TestReplayChargesTheRecordedDecision(t *testing.T) {
	s, db := openEDR(t)
	id := federation.TableObjectID("edr", "photoobj")
	for _, tc := range []struct {
		policy string
		recs   []core.Decision
		div    []bool
	}{
		{"gds", []core.Decision{core.Bypass, core.Hit}, []bool{true, false}},
		{"none", []core.Decision{core.Load, core.Bypass}, []bool{true, false}},
	} {
		pol, err := core.NewPolicyByName(tc.policy, s.TotalBytes()*4/10, 7)
		if err != nil {
			t.Fatal(err)
		}
		m, err := federation.New(federation.Config{Schema: s, Engine: db, Granularity: federation.Tables, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		obj, ok := m.Objects()[id]
		if !ok {
			t.Fatalf("no object %s", id)
		}
		var want core.Accounting
		for i, d := range tc.recs {
			rec := federation.JournalRecord{Kind: federation.JournalAccess, T: int64(i + 1), Object: id, Yield: 1 << 20, Decision: d}
			applied, diverged, err := m.ReplayJournal(rec)
			if err != nil || !applied || diverged != tc.div[i] {
				t.Fatalf("%s: replaying %+v: applied %t, diverged %t (want %t), %v", tc.policy, rec, applied, diverged, tc.div[i], err)
			}
			want.Queries++
			if err := core.Account(&want, obj, rec.Yield, d); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.Accounting(); got != want {
			t.Fatalf("%s: replayed accounting %+v, the recorded decisions' %+v", tc.policy, got, want)
		}
	}
}
