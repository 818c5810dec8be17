package federation_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
)

// TestScrapeIsNeverTorn: a registry snapshot reads the decision plane
// at one unlock. Two callers run QueryStmt over benchFederation's
// statements while 3 000 snapshots are taken, and every snapshot must
// satisfy what the plane satisfies at every unlock:
//
//   - core.yield_bytes = core.cache_bytes + core.bypass_bytes (D_A =
//     D_S + D_C);
//   - Σ core.decisions = core.accesses;
//   - core.bytes_saved_vs_bypass = core.yield_bytes − core.bypass_bytes
//     − core.fetch_bytes (always-bypass's WAN, D_A on the mediator's
//     uniform network, less the realized).
//
// Then, the callers stopped, one scrape is issued while a persist
// snapshot's barrier holds the plane: the collector takes the decision
// lock, so the scrape waits for the barrier, and finishes after it with
// the snapshot's accounting — it does not deadlock.
func TestScrapeIsNeverTorn(t *testing.T) {
	m, sqls, stmts := benchFederation(t)
	reg := m.Obs()
	var (
		stop atomic.Bool
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)-1) % len(sqls)
				if _, err := m.QueryStmt(sqls[i], stmts[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	halt := func() { stop.Store(true); wg.Wait() }
	defer halt()

	var first, last int64
	for n := 0; n < 3000; n++ {
		s := reg.Snapshot()
		yield, cache := s.CounterValue("core.yield_bytes", ""), s.CounterValue("core.cache_bytes", "")
		bypass, fetch := s.CounterValue("core.bypass_bytes", ""), s.CounterValue("core.fetch_bytes", "")
		accesses := s.CounterValue("core.accesses", "")
		if yield != cache+bypass {
			t.Fatalf("snapshot %d: core.yield_bytes %d != core.cache_bytes %d + core.bypass_bytes %d", n, yield, cache, bypass)
		}
		if d := s.CounterTotal("core.decisions"); d != accesses {
			t.Fatalf("snapshot %d: Σ core.decisions %d != core.accesses %d", n, d, accesses)
		}
		if saved := s.GaugeValue("core.bytes_saved_vs_bypass"); saved != yield-bypass-fetch {
			t.Fatalf("snapshot %d: core.bytes_saved_vs_bypass %d != D_A %d − D_S %d − D_L %d", n, saved, yield, bypass, fetch)
		}
		if n == 0 {
			first = accesses
		}
		last = accesses
	}
	halt()
	if t.Failed() {
		return
	}
	if last == first {
		t.Fatal("no query was decided while the snapshots were taken")
	}

	done := make(chan obs.Snapshot, 1)
	st, err := m.SnapshotState(func(federation.State) error {
		go func() { done <- reg.Snapshot() }()
		select {
		case <-done:
			return errors.New("a scrape finished while the snapshot held the decision lock")
		case <-time.After(50 * time.Millisecond):
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-done:
		if got := s.CounterValue("core.yield_bytes", ""); got != st.Acct.YieldBytes {
			t.Fatalf("scrape after the snapshot: core.yield_bytes %d, the snapshot's accounting %d", got, st.Acct.YieldBytes)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the scrape did not finish once the snapshot released the decision lock")
	}
}
