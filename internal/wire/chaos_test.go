package wire

import (
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
func (p *pinned) Capacity() int64                { return 1 << 62 }
func (p *pinned) Contains(id core.ObjectID) bool { return p.cached && id == p.id }
func (p *pinned) Evictions() int64               { return 0 }
func (p *pinned) Reset()                         { p.cached = false; p.size = 0 }

// TestChaosBreakerCycle is the fault-tolerance end-to-end: a real
// 3-site federation over TCP, one site black-holed mid-run. It drives
// the full breaker cycle closed → open → half-open → closed and checks
// every degraded-mode promise along the way: healthy sites keep
// serving, dead-site legs come back as partial results with site-error
// annotations, forced and failed decisions land in the ledger with
// reasons, and the accounting identity Σ ledger yields = D_A survives
// the outage.
func TestChaosBreakerCycle(t *testing.T) {
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
		defer n.Close()
		nodes = append(nodes, n)
		addrs[site] = addr
	}
	if len(nodes) != 3 {
		t.Fatalf("EDR spans %d sites, want 3", len(nodes))
	}

	pol := &pinned{id: federation.ColumnObjectID(s.Name, "specobj", "z")}
	led := ledger.New(4096)
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: pol, Granularity: federation.Columns,
		Obs: obs.NewRegistry(), Ledger: led,
	})
	if err != nil {
		t.Fatal(err)
	}

	proxy := NewProxy(med, federation.Columns, addrs)
	proxy.SetLogf(quiet)
	proxy.SetRPCTimeout(150 * time.Millisecond)
	proxy.SetBreakerConfig(BreakerConfig{
		FailureThreshold: 2,
		BaseBackoff:      50 * time.Millisecond,
		MaxBackoff:       400 * time.Millisecond,
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     150 * time.Millisecond,
		RetryBudget:      1,
		RetryDelay:       time.Millisecond,
		Seed:             3,
	})
	// Every connection to the spec site passes through one injector;
	// flipping its faults mid-run black-holes pooled connections too.
	inj := faultnet.NewInjector(11)
	defer inj.Stop()
	proxy.SetDialer(func(site, addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		if site == catalog.SiteSpec {
			return inj.Conn(c), nil
		}
		return c, nil
	})
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	client, err := Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const qSpec = "select z, zerr from specobj where z < 3"
	const qPhoto = "select ra from photoobj where ra < 30"

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

	// Phase 2 — black-hole the spec site. Each bypass leg now hangs
	// until the RPC deadline; after FailureThreshold timeouts the
	// breaker opens.
	inj.Set(faultnet.Faults{BlackHole: true})
	deadline := time.Now().Add(10 * time.Second)
	for proxy.BreakerState(catalog.SiteSpec) == BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened")
		}
		// Queries still succeed while the breaker is closed: the local
		// engine delivered the data; only the protocol legs time out.
		if _, err := client.Query(qSpec); err != nil {
			t.Fatalf("transition-window query failed: %v", err)
		}
	}

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
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := client.Decisions(DecisionsMsg{})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range dec.Records {
		sum += r.Yield
	}
	if sum != st.Acct.DeliveredBytes() {
		t.Fatalf("Σ ledger yields = %d, D_A = %d", sum, st.Acct.DeliveredBytes())
	}
	var sawForced, sawFailed bool
	for _, r := range dec.Records {
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

	// Phase 4 — heal. The prober's next half-open ping succeeds and
	// the breaker closes; full service resumes.
	inj.Set(faultnet.Faults{})
	deadline = time.Now().Add(10 * time.Second)
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
	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot
	for _, state := range []string{"open", "half-open", "closed"} {
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
