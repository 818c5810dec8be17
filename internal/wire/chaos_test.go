package wire

import (
	"fmt"
	"net"
	"strings"
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

// pinned is a single-object cache: it loads exactly one object on
// first touch and bypasses everything else, so chaos tests know
// precisely which accesses hit cache and which need the network.
type pinned struct {
	id     core.ObjectID
	cached bool
	size   int64
}

func (p *pinned) Name() string { return "pinned" }
func (p *pinned) Access(t int64, obj core.Object, yield int64) core.Decision {
	if obj.ID != p.id {
		return core.Bypass
	}
	if p.cached {
		return core.Hit
	}
	p.cached = true
	p.size = obj.Size
	return core.Load
}
func (p *pinned) Used() int64 {
	if p.cached {
		return p.size
	}
	return 0
}
func (p *pinned) Capacity() int64               { return 1 << 62 }
func (p *pinned) Contains(obj core.Object) bool { return p.cached && obj.ID == p.id }
func (p *pinned) Evictions() int64              { return 0 }

// chaosFed is a real 3-site EDR federation over TCP whose connections
// to the spec site — pooled and probing alike — pass through one
// injector, so flipping its faults mid-run black-holes live connections
// too. The cache is pinned to specobj.z, the RPC deadline is 150 ms, and
// the prober pings a down site every probeInterval for at most
// probeTimeout.
type chaosFed struct {
	proxy  *Proxy
	client *Client
	inj    *faultnet.Injector
	pol    *pinned
}

// The chaos tests' spec and photo statements: qSpec loads specobj.z on
// first touch (a fetch) and bypasses zerr (a sub-query).
const (
	qSpec  = "select z, zerr from specobj where z < 3"
	qPhoto = "select ra from photoobj where ra < 30"
)

func newChaosFed(t *testing.T, probeInterval, probeTimeout time.Duration) *chaosFed {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 50000})
	if err != nil {
		t.Fatal(err)
	}
	quiet := func(string, ...any) {}
	addrs := map[string]string{}
	for _, site := range catalog.Sites(s) {
		n := NewDBNode(site, db)
		n.SetLogf(quiet)
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs[site] = addr
	}
	if len(addrs) != 3 {
		t.Fatalf("EDR spans %d sites, want 3", len(addrs))
	}

	f := &chaosFed{pol: &pinned{id: federation.ColumnObjectID(s.Name, "specobj", "z")}}
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: f.pol, Granularity: federation.Columns,
		Obs: obs.NewRegistry(), Ledger: ledger.New(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.proxy = NewProxy(med, federation.Columns, addrs)
	f.proxy.SetLogf(quiet)
	f.proxy.SetRPCTimeout(150 * time.Millisecond)
	f.proxy.probeInterval, f.proxy.probeTimeout = probeInterval, probeTimeout
	f.inj = faultnet.NewInjector(11)
	t.Cleanup(f.inj.Stop)
	f.proxy.SetDialer(func(site, addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		if site == catalog.SiteSpec {
			return f.inj.Conn(c), nil
		}
		return c, nil
	})
	paddr, err := f.proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.proxy.Close() })
	if f.client, err = Dial(paddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.client.Close() })
	return f
}

// blackHoleSpec black-holes the spec site and sends qSpec until its
// breaker opens: each bypass leg hangs until the RPC deadline, and
// FailureThreshold timeouts open the breaker. Queries still succeed
// meanwhile — the local engine delivered the data; only the protocol
// legs time out.
func (f *chaosFed) blackHoleSpec(t *testing.T) {
	t.Helper()
	f.inj.Set(faultnet.Faults{BlackHole: true})
	deadline := time.Now().Add(10 * time.Second)
	for f.proxy.BreakerState(catalog.SiteSpec) == BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened")
		}
		if _, err := f.client.Query(qSpec); err != nil {
			t.Fatalf("transition-window query failed: %v", err)
		}
	}
}

// TestChaosBreakerCycle is the fault-tolerance end-to-end: a real
// 3-site federation over TCP, one site black-holed mid-run. It drives
// the full breaker cycle closed → open → closed and checks every
// degraded-mode promise along the way: healthy sites keep serving,
// dead-site legs come back as partial results with site-error
// annotations, forced and failed decisions land in the ledger with
// reasons, and the accounting identity Σ ledger yields = D_A survives
// the outage.
func TestChaosBreakerCycle(t *testing.T) {
	f := newChaosFed(t, 20*time.Millisecond, 150*time.Millisecond)
	proxy, client, pol := f.proxy, f.client, f.pol

	// Phase 1 — healthy. The first spec query loads specobj.z (a real
	// object fetch over TCP) and bypasses zerr (a shipped sub-query).
	res, err := client.Query(qSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.SiteErrors) != 0 {
		t.Fatalf("healthy result marked partial: %+v", res)
	}
	if !pol.cached {
		t.Fatal("warm-up did not load specobj.z")
	}
	if st := proxy.BreakerState(catalog.SiteSpec); st != BreakerClosed {
		t.Fatalf("breaker %v after healthy phase, want closed", st)
	}

	// Phase 2 — black-hole the spec site until its breaker opens.
	f.blackHoleSpec(t)

	// Phase 3 — degraded. The cached column is forced to serve stale,
	// the uncached one fails, and the client sees an annotated partial
	// result. The healthy photo site is untouched.
	res, err = client.Query(qSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatalf("degraded result not partial: %+v", res)
	}
	var forced, failed *DecisionMsg
	for i := range res.Decisions {
		d := &res.Decisions[i]
		switch {
		case d.Forced:
			forced = d
		case d.Failed:
			failed = d
		}
	}
	if forced == nil || failed == nil {
		t.Fatalf("decisions = %+v, want one forced and one failed", res.Decisions)
	}
	if forced.Decision != "hit" || !strings.HasPrefix(forced.Reason, core.ReasonForcedCache+": breaker") {
		t.Fatalf("forced = %+v", forced)
	}
	if failed.Decision != "failed" || failed.Yield <= 0 {
		t.Fatalf("failed = %+v", failed)
	}
	if len(res.SiteErrors) != 1 || res.SiteErrors[0].Site != catalog.SiteSpec ||
		res.SiteErrors[0].LostBytes != failed.Yield {
		t.Fatalf("site errors = %+v", res.SiteErrors)
	}
	if res2, err := client.Query(qPhoto); err != nil || res2.Partial {
		t.Fatalf("healthy site degraded during outage: %+v, %v", res2, err)
	}

	// Conservation holds through the outage: Σ ledger yields = D_A
	// (failed legs record zero yield; nothing was charged for them).
	sc, err := client.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range sc.Records {
		sum += r.Yield
	}
	if sum != sc.Acct.DeliveredBytes() {
		t.Fatalf("Σ ledger yields = %d, D_A = %d", sum, sc.Acct.DeliveredBytes())
	}
	var sawForced, sawFailed bool
	for _, r := range sc.Records {
		if r.Stale && strings.HasPrefix(r.Reason, core.ReasonForcedCache) {
			sawForced = true
		}
		if r.Action == core.ReasonFailedLeg && r.Yield == 0 && r.WANCost == 0 {
			sawFailed = true
		}
	}
	if !sawForced || !sawFailed {
		t.Fatalf("ledger missing forced/failed records (forced=%v failed=%v)", sawForced, sawFailed)
	}

	// Phase 4 — heal. The prober's next ping succeeds and the breaker
	// closes; full service resumes.
	f.inj.Set(faultnet.Faults{})
	deadline := time.Now().Add(10 * time.Second)
	for proxy.BreakerState(catalog.SiteSpec) != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after heal (state %v)", proxy.BreakerState(catalog.SiteSpec))
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err = client.Query(qSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.SiteErrors) != 0 {
		t.Fatalf("post-heal result still partial: %+v", res)
	}

	// The metrics plane saw the whole cycle.
	m, err := client.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot
	for _, state := range []string{"open", "closed"} {
		if snap.CounterValue("wire.breaker_transitions", catalog.SiteSpec+"/"+state) < 1 {
			t.Fatalf("no %s transition recorded", state)
		}
	}
	if snap.CounterValue("core.forced_decisions", catalog.SiteSpec) < 1 {
		t.Fatal("core.forced_decisions not counted")
	}
	if snap.CounterValue("core.failed_legs", catalog.SiteSpec) < 1 {
		t.Fatal("core.failed_legs not counted")
	}
	if snap.CounterValue("core.degraded_queries", "") < 1 {
		t.Fatal("core.degraded_queries not counted")
	}
	if snap.CounterValue("wire.probes", catalog.SiteSpec+"/ok") < 1 {
		t.Fatal("no successful probe recorded")
	}
}

// TestDownSiteReadmittedWithinOneProbe: however long a site has been
// down, it is readmitted by the first ping after it heals — within one
// probe interval plus one probe timeout — not after a window grown by
// its failed probes.
func TestDownSiteReadmittedWithinOneProbe(t *testing.T) {
	const interval, timeout = 50 * time.Millisecond, 100 * time.Millisecond
	f := newChaosFed(t, interval, timeout)
	f.blackHoleSpec(t)

	failedProbes := func() int64 {
		return f.proxy.Obs().Snapshot().CounterValue("wire.probes", catalog.SiteSpec+"/fail")
	}
	deadline := time.Now().Add(30 * time.Second)
	for failedProbes() < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("%d failed probes in 30 s, want 6", failedProbes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ok, _ := f.proxy.SiteAvailable(catalog.SiteSpec); ok {
		t.Fatal("site available while black-holed")
	}

	f.inj.Set(faultnet.Faults{})
	healed := time.Now()
	for {
		if ok, _ := f.proxy.SiteAvailable(catalog.SiteSpec); ok {
			break
		}
		if time.Since(healed) > 30*time.Second {
			t.Fatal("site never readmitted")
		}
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(healed); took > interval+timeout {
		t.Fatalf("readmitted %v after healing, want within %v (one probe interval plus one probe timeout)", took, interval+timeout)
	}
	if res, err := f.client.Query(qSpec); err != nil || res.Partial {
		t.Fatalf("first query after readmission: %+v, %v", res, err)
	}
}

// TestLegFailuresKeepTheAnswer: a WAN leg that fails never changes what
// the client is answered — a failed fetch or sub-query is annotated, a
// failed ship or relay leaves the proxy's local answer — which is what
// lets nodeRPC retry a failed exchange on a fresh dial. The first 300
// EDR statements go through the loopback federation while the spec
// site's connections reset, then truncate writes, one operation in five,
// at the edr-bypass and the edr-cached cache. Every reply that is not
// Partial has the rows, bytes and tuples the engine gives the statement
// fault-free (ExecuteBound).
func TestLegFailuresKeepTheAnswer(t *testing.T) {
	const n = 300
	for _, cache := range []float64{0.001, 0.4} {
		for _, fault := range []struct {
			name string
			f    faultnet.Faults
		}{
			{"reset", faultnet.Faults{ResetProb: 0.2}},
			{"truncate", faultnet.Faults{TruncateProb: 0.2}},
		} {
			t.Run(fmt.Sprintf("%s/cache=%g", fault.name, cache), func(t *testing.T) {
				inj := faultnet.NewInjector(5)
				defer inj.Stop()
				inj.Set(fault.f)
				f := edrFederation(t, cache, nil, func(p *Proxy, _ map[string]*DBNode) {
					p.SetRPCTimeout(100 * time.Millisecond)
					p.probeInterval, p.probeTimeout = 20*time.Millisecond, 100*time.Millisecond
					p.SetDialer(func(site, addr string) (net.Conn, error) {
						c, err := net.DialTimeout("tcp", addr, time.Second)
						if err != nil || site != catalog.SiteSpec {
							return c, err
						}
						return inj.Conn(c), nil
					})
				})
				defer f.close()
				db := openEDR(t, 1000)
				var checked, partial, legErrors int
				for i, sql := range f.sqls[:n] {
					got, err := f.client.Query(sql)
					if err != nil {
						t.Fatalf("%d: %s: %v", i, sql, err)
					}
					_, want := execute(t, db, sql)
					legErrors += len(got.TransportErrors)
					if got.Partial {
						partial++
						continue
					}
					if err := sameAsEngine(got, want); err != nil {
						t.Fatalf("%d: %s: transport errors %+v: %v", i, sql, got.TransportErrors, err)
					}
					checked++
				}
				snap := f.proxy.Obs().Snapshot()
				retries := snap.CounterValue("wire.rpc_retries", catalog.SiteSpec)
				timeouts := snap.CounterValue("wire.rpc_timeouts", catalog.SiteSpec)
				t.Logf("%d replies checked, %d partial; %d failed legs, %d retries, %d timeouts at %s",
					checked, partial, legErrors, retries, timeouts, catalog.SiteSpec)
				if retries+timeouts == 0 {
					t.Fatalf("no exchange with %s failed: the faults were not exercised", catalog.SiteSpec)
				}
				if checked == 0 {
					t.Fatal("every reply was partial")
				}
			})
		}
	}
}
