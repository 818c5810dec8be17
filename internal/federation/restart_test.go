package federation_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/sqlparse"
)

// parsedEDR is the first n statements of the EDR workload, parsed.
func parsedEDR(t *testing.T, n int) ([]string, []*sqlparse.SelectStmt) {
	t.Helper()
	sqls := edrStatements(t, n)
	stmts := make([]*sqlparse.SelectStmt, n)
	for i, sql := range sqls {
		var err error
		if stmts[i], err = sqlparse.Parse(sql); err != nil {
			t.Fatal(err)
		}
	}
	return sqls, stmts
}

// TestWarmRestartIsUninterrupted: a warm restart cannot be told from a
// mediator that never stopped. For every -policy name, at table and
// column granularity and at 10% and 40% of EDR, one run of the stream is
// cut three times: a snapshot, then statements journaled after it, then
// the snapshot restored into a fresh mediator and the journal replayed.
// No replayed record may diverge, the restored mediator's policy blob
// and accounting must be the uninterrupted run's where the journal
// ends, and the rest of the stream must cost it the same WAN bytes
// (D_L + D_S) as it cost the uninterrupted run. Its registry must read
// the uninterrupted run's savings against always-bypass
// (core.bytes_saved_vs_bypass) where the journal ends and again at the
// end of the stream: the gauge is read off the accounting, which the
// restore and the replay carry whole.
func TestWarmRestartIsUninterrupted(t *testing.T) {
	const n, span, seed = 1600, 100, 7
	sqls, stmts := parsedEDR(t, n)
	s, db := openEDR(t)
	// A cut snapshots before statement at, and the journal runs to
	// before statement at+span, where the restored mediator goes on.
	type cut struct {
		at       int
		st       federation.State
		from, to int // the journal's records after the snapshot
		resumed  federation.State
		saved    int64 // the uninterrupted run's savings gauge at at+span
	}
	for _, name := range core.PolicyNames() {
		for _, gran := range []federation.Granularity{federation.Tables, federation.Columns} {
			for _, percent := range []int64{10, 40} {
				t.Run(fmt.Sprintf("%s/%s/%d%%", name, gran, percent), func(t *testing.T) {
					build := func(reg *obs.Registry) *federation.Mediator {
						m, err := federation.New(federation.Config{
							Schema: s, Engine: db, Granularity: gran, Capacity: s.TotalBytes() * percent / 100,
							NewPolicy: func(_ int, c int64) (core.Policy, error) { return core.NewPolicyByName(name, c, seed) },
							Obs:       reg,
						})
						if err != nil {
							t.Fatal(err)
						}
						return m
					}
					snapshot := func(m *federation.Mediator) federation.State {
						st, err := m.SnapshotState(nil)
						if err != nil {
							t.Fatal(err)
						}
						return st
					}
					run := func(m *federation.Mediator, from, to int) {
						for i := from; i < to; i++ {
							if _, err := m.QueryStmt(sqls[i], stmts[i]); err != nil {
								t.Fatalf("%s: %v", sqls[i], err)
							}
						}
					}

					saved := func(reg *obs.Registry) int64 {
						return reg.Snapshot().GaugeValue("core.bytes_saved_vs_bypass")
					}

					liveReg := obs.NewRegistry()
					live := build(liveReg)
					var wal journalKeeper
					live.SetJournal(&wal)
					cuts := []*cut{{at: n / 8}, {at: n / 2}, {at: n - 2*span}}
					for i := 0; i <= n; i++ {
						for _, c := range cuts {
							if i == c.at {
								c.st, c.from = snapshot(live), len(wal.recs)
							}
							if i == c.at+span {
								c.resumed, c.to = snapshot(live), len(wal.recs)
								c.saved = saved(liveReg)
							}
						}
						if i < n {
							run(live, i, i+1)
						}
					}
					end, endSaved := live.Accounting(), saved(liveReg)

					var restore time.Duration
					for _, c := range cuts {
						reg := obs.NewRegistry()
						m := build(reg)
						began := time.Now()
						if err := m.RestoreState(c.st); err != nil {
							t.Fatal(err)
						}
						restore = max(restore, time.Since(began))
						for _, rec := range wal.recs[c.from:c.to] {
							if applied, diverged, err := m.ReplayJournal(rec); err != nil || !applied || diverged {
								t.Fatalf("cut at %d: replaying %+v: applied %t, diverged %t, %v", c.at, rec, applied, diverged, err)
							}
						}
						got := snapshot(m)
						if !bytes.Equal(got.PolicyBlob, c.resumed.PolicyBlob) {
							t.Fatalf("cut at %d: the replayed policy's blob is not the uninterrupted run's", c.at)
						}
						if got.Acct != c.resumed.Acct {
							t.Fatalf("cut at %d: replayed accounting %+v, uninterrupted %+v", c.at, got.Acct, c.resumed.Acct)
						}
						if got := saved(reg); got != c.saved {
							t.Fatalf("cut at %d: core.bytes_saved_vs_bypass reads %d after the replay, %d uninterrupted", c.at, got, c.saved)
						}
						run(m, c.at+span, n)
						if got, want := m.Accounting().WANBytes()-c.resumed.Acct.WANBytes(), end.WANBytes()-c.resumed.Acct.WANBytes(); got != want {
							t.Fatalf("cut at %d: the rest of the stream cost %d WAN bytes after the restart, %d uninterrupted", c.at, got, want)
						}
						if got := saved(reg); got != endSaved {
							t.Fatalf("cut at %d: core.bytes_saved_vs_bypass reads %d at the end of the stream, %d uninterrupted", c.at, got, endSaved)
						}
					}
					t.Logf("%d statements, %d accesses, %d evictions; the slowest of the three restores took %v", n, end.Accesses, end.Evictions, restore)
				})
			}
		}
	}
}

// TestEveryPolicyListsItsContents: for every -policy name, the cache a
// reading lists (the scrape's cached_objects) is exactly the set of
// objects the policy reports it holds, and every caching policy holds
// something after EDR statements at 10% of the release by column.
func TestEveryPolicyListsItsContents(t *testing.T) {
	sqls, stmts := parsedEDR(t, 300)
	s, db := openEDR(t)
	for _, name := range core.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			m, err := federation.New(federation.Config{
				Schema: s, Engine: db, Granularity: federation.Columns, Capacity: s.TotalBytes() / 10,
				NewPolicy: func(_ int, c int64) (core.Policy, error) { return core.NewPolicyByName(name, c, 7) },
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, sql := range sqls {
				if _, err := m.QueryStmt(sql, stmts[i]); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			var held []core.ObjectID
			for id, obj := range m.Objects() {
				if m.Policy().Contains(obj) {
					held = append(held, id)
				}
			}
			listed := m.Read(ledger.Query{}).Contents
			slices.Sort(held)
			slices.Sort(listed)
			if !slices.Equal(listed, held) {
				t.Fatalf("a reading lists %d objects %v, the policy holds %d %v", len(listed), listed, len(held), held)
			}
			if name != "none" && len(held) == 0 {
				t.Fatal("the statements cached nothing: the test is vacuous")
			}
		})
	}
}
