package federation_test

import (
	"math/rand"
	"reflect"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/workload"
)

var granularities = []federation.Granularity{federation.Tables, federation.Columns, federation.Views}

// boundStream parses and binds the first n statements of a profile's
// stream.
func boundStream(tb testing.TB, p workload.Profile, n int) []*engine.Bound {
	tb.Helper()
	st, err := workload.NewStream(p)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*engine.Bound, n)
	for i := range out {
		out[i] = mustBind(tb, p.Schema, st.Next().SQL)
	}
	return out
}

func mustBind(tb testing.TB, s *catalog.Schema, sql string) *engine.Bound {
	tb.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		tb.Fatalf("Parse(%q): %v", sql, err)
	}
	b, err := engine.Bind(s, stmt)
	if err != nil {
		tb.Fatalf("Bind(%q): %v", sql, err)
	}
	return b
}

// checkDecompose holds Decompose to the reference for one statement and
// yield: the same accesses — ids, order, yields — and every byte of the
// yield assigned.
func checkDecompose(t *testing.T, b *engine.Bound, yield int64, g federation.Granularity) {
	t.Helper()
	release := b.Schema.Name
	got := federation.Decompose(b, release, yield, g)
	want := federation.ReferenceDecompose(b, release, yield, g)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s at %s, yield %d:\n got  %+v\n want %+v", b.Stmt, g, yield, got, want)
	}
	if got == nil {
		return
	}
	var sum int64
	for _, a := range got {
		sum += a.Yield
	}
	if sum != yield {
		t.Fatalf("%s at %s: Σ yields = %d, want the yield %d", b.Stmt, g, sum, yield)
	}
}

// TestDecomposeMatchesReference is the differential test of the
// position-walking Decompose against the name-building one it replaced,
// over the statement streams the benchmark and the experiments draw
// from, at every granularity. The yields are drawn, not executed:
// decomposition never looks at the data, and drawn yields reach the
// remainders (zero, a few bytes, terabytes) real ones cluster away from.
func TestDecomposeMatchesReference(t *testing.T) {
	n := 12000
	if raceEnabled || testing.Short() {
		n = 1500
	}
	point := workload.EDRProfile()
	point.Mix = workload.Mix{Identity: .5, Spatial: .3, Aggregate: .2}
	streams := map[string]workload.Profile{
		"edr":          workload.EDRProfile(),
		"point-bypass": point,
		"dr1":          workload.DR1Profile(),
	}
	for name, p := range streams {
		bound := boundStream(t, p, n)
		for _, g := range granularities {
			t.Run(name+"/"+g.String(), func(t *testing.T) {
				r := rand.New(rand.NewSource(11))
				accesses := 0
				for _, b := range bound {
					var yield int64
					switch r.Intn(8) {
					case 0:
					case 1:
						yield = r.Int63n(64)
					default:
						yield = r.Int63n(1 << 41)
					}
					checkDecompose(t, b, yield, g)
					accesses += len(federation.Decompose(b, b.Schema.Name, yield, g))
				}
				if accesses < len(bound) {
					t.Fatalf("%d accesses over %d statements: the stream decomposes to nothing", accesses, len(bound))
				}
			})
		}
	}
}

// TestDecomposeHandCases covers the shapes the streams do not draw.
func TestDecomposeHandCases(t *testing.T) {
	s := catalog.EDR()
	cases := []struct {
		name, sql string
		columns   int // distinct referenced columns; 0 = don't check
	}{
		{"star", "select * from photoobj", 44},
		{"star over a join", "select * from photoobj p, specobj s where p.objid = s.objid", 62},
		{"wider than the stack buffer", "select * from frame", 73},
		{"self-join under two aliases", "select a.ra, b.dec from photoobj a, photoobj b where a.objid = b.objid and a.type = 3", 4},
		{"projected and constrained", "select ra, dec from photoobj where ra between 10 and 20 and dec > 0", 2},
		{"one column three times", "select ra from photoobj where ra > 1 and ra < 2 order by ra", 1},
		{"count star with a predicate", "select count(*) from photoobj where type = 6", 1},
		{"count star alone", "select count(*) from photoobj", 0},
		{"second table referenced only by the join", "select p.ra from photoobj p, specobj s where p.objid = s.objid", 3},
		{"view region", "select ra, dec from photoobj where type = 3 and modelmag_r between 14 and 18", 4},
		{"view region too wide", "select ra from photoobj where type between 3 and 6", 2},
		{"group by", "select type, count(*) from photoobj group by type", 1},
	}
	for _, c := range cases {
		b := mustBind(t, s, c.sql)
		if c.columns > 0 && len(b.ReferencedColumns()) != c.columns {
			t.Fatalf("%s: %d referenced columns, want %d", c.name, len(b.ReferencedColumns()), c.columns)
		}
		for _, g := range granularities {
			for _, yield := range []int64{-1, 0, 1, 7, 999, 1 << 40, 1<<40 + 12345} {
				checkDecompose(t, b, yield, g)
			}
		}
	}
	// A statement that references no column decomposes to nothing, as
	// does a negative yield.
	if got := federation.Decompose(mustBind(t, s, "select count(*) from photoobj"), "edr", 100, federation.Columns); got != nil {
		t.Fatalf("count(*) decomposed to %+v", got)
	}
	if got := federation.Decompose(mustBind(t, s, "select ra from photoobj"), "edr", -5, federation.Tables); got != nil {
		t.Fatalf("negative yield decomposed to %+v", got)
	}
}

// TestAccessDecisionTable: every decision names the table its object
// belongs to by position in the schema — the table itself, a column's
// table, a view's base table — which is what the proxy ships a bypass
// by.
func TestAccessDecisionTable(t *testing.T) {
	s, db := openEDR(t)
	po, so := s.TableIndex("photoobj"), s.TableIndex("specobj")
	const join = "select p.ra, s.z from photoobj p, specobj s where p.objid = s.objid and p.type = 3 and s.z between 0.1 and 0.5"
	want := map[federation.Granularity]map[core.ObjectID]int{
		federation.Tables: {"edr/photoobj": po, "edr/specobj": so},
		federation.Columns: {
			"edr/photoobj.objid": po, "edr/photoobj.ra": po, "edr/photoobj.type": po,
			"edr/specobj.objid": so, "edr/specobj.z": so,
		},
		federation.Views: {"edr/view:galaxy": po, "edr/view:lowzspec": so},
	}
	for g, tables := range want {
		m, err := federation.New(federation.Config{Schema: s, Engine: db, Granularity: g})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Query(join)
		if err != nil {
			t.Fatal(err)
		}
		got := map[core.ObjectID]int{}
		for _, d := range rep.Decisions {
			got[d.Object] = d.Table
		}
		if !reflect.DeepEqual(got, tables) {
			t.Fatalf("%s: decisions name tables %v, want %v", g, got, tables)
		}
	}
}

// TestDecomposeAllocs gates Decompose's allocations over the EDR stream
// at column granularity: the access list, and nothing per column.
func TestDecomposeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	bound := boundStream(t, workload.EDRProfile(), 3000)
	federation.Decompose(bound[0], "edr", 1, federation.Columns) // build the index
	perPass := testing.AllocsPerRun(1, func() {
		for i, b := range bound {
			federation.Decompose(b, "edr", int64(i)*977, federation.Columns)
		}
	})
	mean := perPass / float64(len(bound))
	t.Logf("%.2f allocs per statement", mean)
	if mean > 3 {
		t.Fatalf("Decompose allocates %.2f times per statement on average, want <= 3", mean)
	}
}
