package wire

import (
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
)

// TestBreakerRestartCycle pins the restart contract for breaker state:
// breakers are process state, deliberately NOT persisted by
// internal/persist. A proxy that dies with a site's breaker open after
// failed probes must come back with every breaker closed and no failure
// streak — the new process re-learns site health from scratch instead of
// inheriting a stale open breaker that would keep a recovered site
// degraded until its first probe.
func TestBreakerRestartCycle(t *testing.T) {
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
	newMediatorProxy := func() (*federation.Mediator, *Proxy) {
		pol, err := core.NewPolicyByName("gds", s.TotalBytes()/2, 1)
		if err != nil {
			t.Fatal(err)
		}
		med, err := federation.New(federation.Config{
			Schema: s, Engine: db, Policy: pol,
			Granularity: federation.Tables, Obs: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		p := NewProxy(med, federation.Tables, addrs)
		p.SetLogf(quiet)
		return med, p
	}

	// First life: drive the spec site's breaker open, then through
	// failed probes.
	_, p1 := newMediatorProxy()
	br := p1.sites[catalog.SiteSpec].br
	for i := 0; i < FailureThreshold+4; i++ {
		br.RecordFailure()
	}
	if br.State() != BreakerOpen {
		t.Fatalf("state = %v, want open before restart", br.State())
	}
	if ok, _ := p1.SiteAvailable(catalog.SiteSpec); ok {
		t.Fatal("open breaker reported available")
	}

	// Restart: a fresh proxy over the same node addresses. Every
	// breaker starts closed with a zeroed failure streak — nothing of
	// the first life's outage survives.
	med2, p2 := newMediatorProxy()
	for site := range addrs {
		if got := p2.BreakerState(site); got != BreakerClosed {
			t.Fatalf("site %s restarted %v, want closed", site, got)
		}
		b2 := p2.sites[site].br
		b2.mu.Lock()
		fails := b2.fails
		b2.mu.Unlock()
		if fails != 0 {
			t.Fatalf("site %s restarted with fails=%d, want 0", site, fails)
		}
		if ok, reason := p2.SiteAvailable(site); !ok {
			t.Fatalf("site %s unavailable after restart: %s", site, reason)
		}
	}

	// And traffic to the previously-broken site flows immediately —
	// no inherited outage to probe out of.
	paddr, err := p2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	c, err := Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("select z, zConf from specobj where z < 0.4")
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("first post-restart query degraded: %+v", res.SiteErrors)
	}
	if med2.Accounting().Queries != 1 {
		t.Fatal("query not accounted on the restarted mediator")
	}
}
