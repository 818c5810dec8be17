package wire

import (
	"sync"
	"sync/atomic"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/workload"
)

// testLedgerFederation is testFederation with a decision ledger wired
// into the mediator.
func testLedgerFederation(t *testing.T, policy core.Policy, gran federation.Granularity) (*Client, func()) {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 50000})
	if err != nil {
		t.Fatal(err)
	}
	quiet := func(string, ...any) {}

	sites := map[string]bool{}
	for i := range s.Tables {
		sites[s.Tables[i].Site] = true
	}
	var nodes []*DBNode
	addrs := map[string]string{}
	for site := range sites {
		n := NewDBNode(site, db)
		n.SetLogf(quiet)
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		addrs[site] = addr
	}

	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: policy, Granularity: gran,
		Obs:    obs.NewRegistry(),
		Ledger: ledger.New(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewProxy(med, gran, addrs)
	proxy.SetLogf(quiet)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	return client, func() {
		client.Close()
		proxy.Close()
		for _, n := range nodes {
			n.Close()
		}
	}
}

// TestEndToEndLedgerReconcile is the acceptance test of the decision
// ledger and the savings against always-bypass: replaying a workload
// through proxy+nodes must yield (1) a ledger whose per-decision
// realized yields sum to D_A and whose WAN charges sum to D_S + D_L,
// and (2) an exported core.bytes_saved_vs_bypass gauge equal to
// always-bypass's traffic, D_A on the proxy's uniform network, minus
// the realized traffic.
func TestEndToEndLedgerReconcile(t *testing.T) {
	cap := catalog.EDR().TotalBytes()
	client, shutdown := testLedgerFederation(t,
		core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), federation.Columns)
	defer shutdown()

	// Mixed workload: repeats of a fat query drive bypass → load →
	// hit; a second query touches the other site.
	for i := 0; i < 8; i++ {
		if _, err := client.Query("select ra, dec from photoobj where ra between 0 and 350"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Query("select z from specobj where z < 3"); err != nil {
		t.Fatal(err)
	}

	sc, err := client.Scrape(ScrapeMsg{Limit: 4096})
	if err != nil {
		t.Fatal(err)
	}
	acct := sc.Acct

	if sc.Recorded != uint64(acct.Accesses) {
		t.Fatalf("ledger total = %d, want one record per access (%d)", sc.Recorded, acct.Accesses)
	}
	if len(sc.Records) != int(acct.Accesses) {
		t.Fatalf("ledger returned %d records, want %d", len(sc.Records), acct.Accesses)
	}

	// (1) Ledger reconciliation: Σ yields = D_A, Σ WAN costs = D_S+D_L.
	var sumYield, sumWAN int64
	actions := map[string]int64{}
	for _, r := range sc.Records {
		sumYield += r.Yield
		sumWAN += r.WANCost
		actions[r.Action]++
		if r.Policy != "rate-profile" {
			t.Fatalf("record policy = %q: %+v", r.Policy, r)
		}
		if r.Reason == "" {
			t.Fatalf("record carries no reason: %+v", r)
		}
	}
	if sumYield != acct.DeliveredBytes() {
		t.Fatalf("Σ ledger yields = %d, want D_A = %d", sumYield, acct.DeliveredBytes())
	}
	if sumWAN != acct.WANBytes() {
		t.Fatalf("Σ ledger WAN = %d, want D_S+D_L = %d", sumWAN, acct.WANBytes())
	}
	if actions["hit"] != acct.Hits || actions["bypass"] != acct.Bypasses || actions["load"] != acct.Loads {
		t.Fatalf("ledger action counts %v, want hits=%d bypasses=%d loads=%d",
			actions, acct.Hits, acct.Bypasses, acct.Loads)
	}

	// (2) Savings identity: always-bypass traffic − realized traffic ==
	// exported core.bytes_saved_vs_bypass, always-bypass's traffic being
	// the ledger's Σ yields.
	wantSaved := sumYield - sumWAN
	if got := sc.Snapshot.GaugeValue("core.bytes_saved_vs_bypass"); got != wantSaved {
		t.Fatalf("core.bytes_saved_vs_bypass = %d, want %d", got, wantSaved)
	}
	// The workload re-reads the same columns, so caching must have won.
	if wantSaved <= 0 {
		t.Fatalf("bytes saved vs bypass = %d, want positive for a hit-heavy workload", wantSaved)
	}

	// Decision latency histogram: one observation per access.
	h, ok := sc.Snapshot.HistogramSnap("core.decide_seconds", "")
	if !ok || h.Count != acct.Accesses {
		t.Fatalf("core.decide_seconds count = %d (ok=%v), want %d", h.Count, ok, acct.Accesses)
	}
}

// TestLedgerFilterAndTraceCorrelation exercises the MsgScrape
// filters: action filters must agree with the accounting, and records
// for a traced query must carry its trace id.
func TestLedgerFilterAndTraceCorrelation(t *testing.T) {
	cap := catalog.EDR().TotalBytes()
	client, shutdown := testLedgerFederation(t,
		core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), federation.Columns)
	defer shutdown()

	for i := 0; i < 5; i++ {
		if _, err := client.Query("select ra from photoobj where ra between 0 and 350"); err != nil {
			t.Fatal(err)
		}
	}
	// One traced query: its ledger records must carry the trace id.
	traceID := obs.NewID()
	if _, err := client.QueryTraced("select ra from photoobj where ra between 0 and 350", traceID); err != nil {
		t.Fatal(err)
	}

	st, err := client.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	loads, err := client.Scrape(ScrapeMsg{Action: "load"})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(loads.Records)) != st.Acct.Loads {
		t.Fatalf("action=load filter returned %d records, want %d", len(loads.Records), st.Acct.Loads)
	}

	byObj, err := client.Scrape(ScrapeMsg{Object: "edr/photoobj.ra"})
	if err != nil {
		t.Fatal(err)
	}
	if len(byObj.Records) != 6 {
		t.Fatalf("object filter returned %d records, want 6", len(byObj.Records))
	}

	traced, err := client.Scrape(ScrapeMsg{Trace: obs.FormatID(traceID)})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Records) != 1 {
		t.Fatalf("trace filter returned %d records, want 1", len(traced.Records))
	}
	if traced.Records[0].Object != "edr/photoobj.ra" || traced.Records[0].Action != "hit" {
		t.Fatalf("traced record = %+v", traced.Records[0])
	}
	// Untraced queries' records carry no trace id.
	all, err := client.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	var marked int
	for _, r := range all.Records {
		if r.Trace != "" {
			marked++
		}
	}
	if marked != 1 {
		t.Fatalf("%d records carry a trace id, want exactly 1", marked)
	}
}

// TestScrapeIsOneReading: a scrape's accounting and ledger count are one
// reading of the decision plane. Two clients send the first 3 000 EDR
// statements to a proxy with no nodes (Rate-Profile at 40% of the
// release, column objects, a 4 096-record ledger), while a third
// connection scrapes until they finish. Every reply must hold a ledger
// record per access accounted, and an accounting with D_A = D_S + D_C,
// from which the savings against always-bypass are read.
func TestScrapeIsOneReading(t *testing.T) {
	db := openEDR(t, 1000)
	s := db.Schema()
	policy, err := core.NewPolicyByName("rate-profile", int64(0.4*float64(s.TotalBytes())), 1)
	if err != nil {
		t.Fatal(err)
	}
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: policy, Granularity: federation.Columns,
		Obs: obs.NewRegistry(), Ledger: ledger.New(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(med, federation.Columns, nil)
	p.SetLogf(func(string, ...any) {})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st, err := workload.NewStream(workload.EDRProfile())
	if err != nil {
		t.Fatal(err)
	}
	sqls := make([]string, hitPathStatements)
	for i := range sqls {
		sqls[i] = st.Next().SQL
	}

	var (
		next    atomic.Int64
		clients sync.WaitGroup
		done    = make(chan struct{})
	)
	for range 2 {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := int(next.Add(1)) - 1; i < len(sqls); i = int(next.Add(1)) - 1 {
				if _, err := c.Query(sqls[i]); err != nil {
					t.Errorf("%s: %v", sqls[i], err)
					return
				}
			}
		}()
	}
	go func() { clients.Wait(); close(done) }()

	sc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var scrapes, torn, unbalanced int
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true // one last scrape, after the last decision
		default:
		}
		res, err := sc.Scrape(ScrapeMsg{})
		if err != nil {
			t.Fatal(err)
		}
		scrapes++
		if res.Recorded != uint64(res.Acct.Accesses) {
			torn++
			t.Logf("scrape %d: %d ledger records, %d accesses accounted", scrapes, res.Recorded, res.Acct.Accesses)
		}
		if res.Acct.YieldBytes != res.Acct.DeliveredBytes() {
			unbalanced++
			t.Logf("scrape %d: D_A %d, D_S + D_C %d", scrapes, res.Acct.YieldBytes, res.Acct.DeliveredBytes())
		}
	}
	if torn > 0 || unbalanced > 0 {
		t.Fatalf("of %d scrapes, %d count records other than the accesses and %d deliver other than D_S + D_C", scrapes, torn, unbalanced)
	}
	if acct := med.Accounting(); acct.Queries != int64(len(sqls)) {
		t.Fatalf("%d queries accounted, want %d", acct.Queries, len(sqls))
	}
	t.Logf("%d scrapes, each one reading", scrapes)
}
