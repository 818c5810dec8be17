package wire

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/faultnet"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
)

// concurrentFederation is testLedgerFederation exposing the proxy and
// nodes so concurrency tests can read their registries directly.
func concurrentFederation(t *testing.T, policy core.Policy) (addr string, proxy *Proxy, nodes map[string]*DBNode, shutdown func()) {
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
	nodes = map[string]*DBNode{}
	addrs := map[string]string{}
	for site := range sites {
		n := NewDBNode(site, db)
		n.SetLogf(quiet)
		naddr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[site] = n
		addrs[site] = naddr
	}

	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: policy, Granularity: federation.Columns,
		Obs:    obs.NewRegistry(),
		Ledger: ledger.New(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy = NewProxy(med, federation.Columns, addrs)
	proxy.SetLogf(quiet)
	addr, err = proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, proxy, nodes, func() {
		proxy.Close()
		for _, n := range nodes {
			n.Close()
		}
	}
}

// TestConcurrentQueriesReconcileExactly is the pipeline's accounting
// acceptance test (run it with -race): 8 concurrent clients hammer all
// three EDR sites, and afterwards every sequential-era invariant must
// still hold exactly — one ledger record per access, Σ ledger yields =
// D_A, Σ WAN charges = D_S + D_L, Σ client-observed result bytes =
// D_A, the savings gauge is always-bypass's WAN (D_A) less D_S + D_L,
// the inflight gauges have drained to zero, and the nodes were sent one
// fetch per load. It runs with the cache at the
// whole release, where every statement is executed at the proxy, and at
// the edr-bypass cache, where the photoobj statements are yield-blind
// and shipped to their node before the decision.
func TestConcurrentQueriesReconcileExactly(t *testing.T) {
	queries := []string{
		"select ra, dec from photoobj where ra between 0 and 350",
		"select z from specobj where z < 3",
		"select ra from photoobj",
		"select z, zconf from specobj",
	}
	for _, c := range []struct {
		name  string
		cache float64
	}{{"whole release", 1}, {"edr-bypass cache", 0.001}} {
		t.Run(c.name, func(t *testing.T) {
			capacity := int64(c.cache * float64(catalog.EDR().TotalBytes()))
			addr, proxy, nodes, shutdown := concurrentFederation(t, core.NewRateProfile(core.RateProfileConfig{Capacity: capacity}))
			defer shutdown()
			blind := 0
			for _, sql := range queries {
				if _, ok := yieldBlind(proxy.med, bind(t, proxy.med.Schema(), sql)); ok {
					blind++
				}
			}
			if shipping := c.cache < 1; shipping != (blind > 0) {
				t.Fatalf("%d of the statements are yield-blind", blind)
			}
			reconcileConcurrently(t, addr, proxy, nodes, queries)
		})
	}
}

// reconcileConcurrently is TestConcurrentQueriesReconcileExactly at one
// cache size.
func reconcileConcurrently(t *testing.T, addr string, proxy *Proxy, nodes map[string]*DBNode, queries []string) {
	const clients = 8
	const perClient = 10
	var delivered atomic.Int64 // Σ result bytes observed by clients
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				res, err := cl.Query(queries[(c+i)%len(queries)])
				if err != nil {
					errs <- err
					return
				}
				if res.Partial || len(res.TransportErrors) > 0 {
					t.Errorf("client %d query %d degraded: partial=%v transport=%v",
						c, i, res.Partial, res.TransportErrors)
				}
				delivered.Add(res.Bytes)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sc, err := cl.Scrape(ScrapeMsg{Limit: 4096})
	if err != nil {
		t.Fatal(err)
	}
	acct := sc.Acct

	if sc.Acct.Queries != clients*perClient {
		t.Fatalf("mediated %d queries, want %d", sc.Acct.Queries, clients*perClient)
	}
	// Clients collectively received exactly what the mediator charged.
	if got := delivered.Load(); got != acct.DeliveredBytes() {
		t.Fatalf("Σ client result bytes = %d, want D_A = %d", got, acct.DeliveredBytes())
	}
	if sc.Recorded != uint64(acct.Accesses) {
		t.Fatalf("ledger total = %d, want one record per access (%d)", sc.Recorded, acct.Accesses)
	}
	var sumYield, sumWAN int64
	actions := map[string]int64{}
	for _, r := range sc.Records {
		sumYield += r.Yield
		sumWAN += r.WANCost
		actions[r.Action]++
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
	// Accounted = carried for loads: each one the proxy charged is one
	// fetch RPC a node served.
	if got := fetches(nodes); got != acct.Loads {
		t.Fatalf("the nodes served %d fetches, want one per load (%d)", got, acct.Loads)
	}

	// The savings identity survives interleaving: always-bypass WAN is
	// the raw yield total (uniform network), and the exported savings
	// gauge is that less the realized WAN.
	wantSaved := acct.YieldBytes - acct.WANBytes()
	if got := sc.Snapshot.GaugeValue("core.bytes_saved_vs_bypass"); got != wantSaved {
		t.Fatalf("core.bytes_saved_vs_bypass = %d, want %d", got, wantSaved)
	}

	// Quiescence: with no query in flight the pipeline gauges and every
	// per-site pool-active gauge must be back at zero.
	snap := proxy.Obs().Snapshot()
	if got := snap.GaugeValue("core.query_concurrency"); got != 0 {
		t.Fatalf("core.query_concurrency = %d after drain, want 0", got)
	}
	if got := snap.GaugeValue("core.legs_inflight"); got != 0 {
		t.Fatalf("core.legs_inflight = %d after drain, want 0", got)
	}
	for site, s := range proxy.sites {
		if active, _ := s.pool.Stats(); active != 0 {
			t.Fatalf("pool %s still has %d active conns after drain", site, active)
		}
	}
}

// fetches is Σ dbnode.fetches over a federation's nodes: the fetch RPCs
// they served.
func fetches(nodes map[string]*DBNode) (n int64) {
	for _, node := range nodes {
		n += node.fetches.Value()
	}
	return n
}

// alwaysLoad is a degenerate policy that loads on every access and
// never admits the object, which breaks the core.Policy contract, so
// concurrent queries for one object all decide Load while another's
// fetch of it is in flight.
type alwaysLoad struct{}

func (alwaysLoad) Name() string                                   { return "always-load" }
func (alwaysLoad) Access(int64, core.Object, int64) core.Decision { return core.Load }
func (alwaysLoad) Used() int64                                    { return 0 }
func (alwaysLoad) Capacity() int64                                { return 1 << 40 }
func (alwaysLoad) Contains(core.Object) bool                      { return false }
func (alwaysLoad) Evictions() int64                               { return 0 }

// TestEveryLoadIsOneFetch: M clients concurrently trigger Load decisions
// for the same object over a slow WAN, so their fetches overlap, and the
// node serves one fetch RPC per load the proxy charged: the WAN carries
// what the accounting counts, however the legs interleave.
func TestEveryLoadIsOneFetch(t *testing.T) {
	addr, proxy, nodes, shutdown := concurrentFederation(t, alwaysLoad{})
	defer shutdown()

	// ~25ms per conn operation makes each fetch slow enough that the
	// other clients' legs arrive while the first one's RPC is in flight.
	inj := faultnet.NewInjector(7)
	defer inj.Stop()
	inj.Set(faultnet.Faults{Latency: 25 * time.Millisecond})
	proxy.SetDialer(func(_, a string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", a, time.Second)
		if err != nil {
			return nil, err
		}
		return inj.Conn(c), nil
	})

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if _, err := cl.Query("select ra from photoobj"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Acct.Loads != clients {
		t.Fatalf("loads = %d, want %d (one per query)", st.Acct.Loads, clients)
	}
	if got := fetches(nodes); got != st.Acct.Loads {
		t.Fatalf("the nodes served %d fetches, want one per load (%d)", got, st.Acct.Loads)
	}
}
