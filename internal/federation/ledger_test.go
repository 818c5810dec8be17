package federation_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/sqlparse"
)

// failingPolicy is Rate-Profile with a fault: the fourth access of every
// seventh query gets a decision no policy makes, so the mediator fails
// the query there, three accesses into its decide loop. It runs under
// the decision lock, and remembers how many accesses each failed query
// had decided.
type failingPolicy struct {
	*core.RateProfile
	t, n   int64
	failed map[int64]int64 // query clock → accesses decided before the fault
}

func (p *failingPolicy) Access(t int64, obj core.Object, yield int64) core.Decision {
	if t != p.t {
		p.t, p.n = t, 0
	}
	p.n++
	if t%7 == 0 && p.n == 4 {
		p.failed[t] = 3
		return core.Decision(200)
	}
	return p.RateProfile.Access(t, obj, yield)
}

// lockedSink keeps what the ledger hands its sink.
type lockedSink struct {
	mu   sync.Mutex
	recs []ledger.DecisionRecord
}

func (s *lockedSink) Record(r ledger.DecisionRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

// checkReading fails t unless r is one moment of the decision plane: a
// ledger record per access accounted, and D_A = D_S + D_C, so that
// always-bypass's WAN on the mediator's uniform network is the
// reading's D_A and the savings read off it are the plane's.
func checkReading(t *testing.T, r federation.Reading) {
	t.Helper()
	if r.Recorded != uint64(r.Acct.Accesses) {
		t.Errorf("reading at clock %d: %d ledger records, %d accesses accounted", r.Clock, r.Recorded, r.Acct.Accesses)
	}
	if r.Acct.YieldBytes != r.Acct.DeliveredBytes() {
		t.Errorf("reading at clock %d: D_A %d, D_S + D_C %d", r.Clock, r.Acct.YieldBytes, r.Acct.DeliveredBytes())
	}
}

// TestLedgerUnderConcurrentDecisions: the Decider writes each record of
// a query into its slot in the ledger's ring, under the decision lock,
// while scrapes read the decision plane through Mediator.Read under the
// same lock. Under the race detector, with three callers deciding and
// two scrapers reading a ring smaller than a few queries' worth:
//
//   - every reading is one moment: a ledger record per access accounted,
//     and D_A = D_S + D_C;
//   - every snapshot is whole: consecutive Seq, no record torn, the
//     query clock never going back; and a selection by action is only
//     whole records of that action, in Seq order;
//   - the sink gets every record once, in Seq order, and their yields add
//     up to D_A;
//   - a query that fails in its decide loop keeps the records of the
//     accesses it decided, and only those.
func TestLedgerUnderConcurrentDecisions(t *testing.T) {
	s, db := openEDR(t)
	n := 1200
	if raceEnabled || testing.Short() {
		n = 400
	}
	sqls := edrStatements(t, n)
	stmts := make([]*sqlparse.SelectStmt, n)
	for i, sql := range sqls {
		var err error
		if stmts[i], err = sqlparse.Parse(sql); err != nil {
			t.Fatal(err)
		}
	}
	pol := &failingPolicy{
		RateProfile: core.NewRateProfile(core.RateProfileConfig{Capacity: s.TotalBytes() * 4 / 10}),
		failed:      map[int64]int64{},
	}
	led := ledger.New(50)
	sink := &lockedSink{}
	led.SetSink(sink.Record)
	m, err := federation.New(federation.Config{
		Schema: s, Engine: db, Granularity: federation.Columns, Policy: pol, Ledger: led,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		next, failures atomic.Int64
		callers        sync.WaitGroup
		done           = make(chan struct{})
		scrapers       sync.WaitGroup
		scrapes        atomic.Int64
	)
	for c := 0; c < 3; c++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if _, err := m.QueryStmt(sqls[i], stmts[i]); err != nil {
					failures.Add(1)
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				all := m.Read(ledger.Query{})
				checkReading(t, all)
				snap := all.Records
				for i, rec := range snap {
					if rec.Object == "" || rec.Policy != "rate-profile" || rec.Size <= 0 {
						t.Errorf("torn record: %+v", rec)
						return
					}
					if i > 0 && (rec.Seq != snap[i-1].Seq+1 || rec.T < snap[i-1].T) {
						t.Errorf("snapshot goes from seq %d (t %d) to seq %d (t %d)", snap[i-1].Seq, snap[i-1].T, rec.Seq, rec.T)
						return
					}
				}
				r := m.Read(ledger.Query{Action: "hit", Limit: 64})
				checkReading(t, r)
				hits := r.Records
				for i, rec := range hits {
					if rec.Action != "hit" || rec.Object == "" || rec.Policy != "rate-profile" {
						t.Errorf("Select(hits) returned %+v", rec)
						return
					}
					if i > 0 && rec.Seq <= hits[i-1].Seq {
						t.Errorf("Select goes from seq %d to seq %d", hits[i-1].Seq, rec.Seq)
						return
					}
				}
				scrapes.Add(1)
			}
		}()
	}
	callers.Wait()
	close(done)
	scrapers.Wait()
	if t.Failed() {
		return
	}

	if failures.Load() == 0 || int(failures.Load()) != len(pol.failed) {
		t.Fatalf("%d queries failed, the policy faulted %d", failures.Load(), len(pol.failed))
	}
	if scrapes.Load() == 0 {
		t.Fatal("no scrape ran while the queries were decided")
	}
	recs := sink.recs
	if uint64(len(recs)) != led.Count() {
		t.Fatalf("the sink has %d records, the ledger counts %d", len(recs), led.Count())
	}
	perQuery := map[int64]int64{}
	var yields int64
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("sink record %d has seq %d", i, rec.Seq)
		}
		perQuery[rec.T]++
		yields += rec.Yield
	}
	for q, decided := range pol.failed {
		if perQuery[q] != decided {
			t.Fatalf("query %d failed after %d accesses and left %d records", q, decided, perQuery[q])
		}
	}
	if acct := m.Accounting(); yields != acct.DeliveredBytes() {
		t.Fatalf("Σ ledger yields %d, D_A %d", yields, acct.DeliveredBytes())
	}
	t.Logf("%d statements, %d failed, %d records, %d scrapes", n, failures.Load(), len(recs), scrapes.Load())
}
