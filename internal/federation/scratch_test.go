package federation_test

import (
	"fmt"
	"math"
	"reflect"
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

// sameReport compares everything of two reports but the timings and the
// tuples.
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
	if err := sameSizes(got.Result, want.Result); err != nil {
		return err
	}
	return sameBound(got.Bound, want.Bound)
}

// TestScratchReportsWhatQueryStmtReports is the differential test of
// the one implementation behind the two ways in: the 3 000 statements of
// the federation benchmark's traced pass go as text through
// QueryScratch in one Scratch — scrambled and released after every
// statement, as the wire tests scramble a serving connection's — and,
// parsed by the caller, through MediateTraced on a twin mediator, which
// sizes each in a zero Scratch and keeps the report. Statement for
// statement the two reports must be equal field for field — result,
// binding, decisions in order, Seq, the degraded annotations of a
// stretch during which a site is down — but for the tuples, which the
// twin's report must not have and QueryScratch's must have exactly as
// the engine executes the twin's binding; and this including after
// statements that fail to parse, to bind and to execute in the same
// Scratch, which must fail alike. At the end the two mediators have the
// same accounting, ledger and journal: nothing either kept pointed into
// the Scratch, or the scrambling would show in it.
func TestScratchReportsWhatQueryStmtReports(t *testing.T) {
	zeroScratch(t)
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
				if want.Result.Tuples != nil {
					t.Fatalf("statement %d: %s: sized, the report has %d tuples", i, sql, len(want.Result.Tuples))
				}
				executed, err := db.ExecuteBound(want.Bound)
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
