package main

import (
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/faultnet"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/wire"
)

// startFederation stands up an in-process EDR federation with a fault
// injector on the proxy's legs to one site only, and a low flight
// threshold so ordinary test queries exceed it. It returns the proxy
// and node scrape addresses (proxy first).
func startFederation(t *testing.T, slowSite string, slow faultnet.Faults) []string {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 100000})
	if err != nil {
		t.Fatal(err)
	}
	quiet := func(string, ...any) {}

	nodeAddrs := map[string]string{}
	var scrape []string
	for _, site := range []string{catalog.SitePhoto, catalog.SiteSpec, catalog.SiteMeta} {
		n := wire.NewDBNode(site, db)
		n.SetLogf(quiet)
		n.SetFlightConfig(flightrec.Config{Threshold: 5 * time.Millisecond})
		naddr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodeAddrs[site] = naddr
		scrape = append(scrape, naddr)
	}

	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Granularity: federation.Tables, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := wire.NewProxy(med, federation.Tables, nodeAddrs)
	proxy.SetLogf(quiet)
	proxy.SetFlightConfig(flightrec.Config{Threshold: 5 * time.Millisecond})
	inj := faultnet.NewInjector(3)
	inj.Set(slow)
	proxy.SetDialer(func(site, a string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", a, time.Second)
		if err != nil {
			return nil, err
		}
		if site == slowSite {
			return inj.Conn(c), nil
		}
		return c, nil
	})
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return append([]string{paddr}, scrape...)
}

// TestFederationTailAttribution is the issue's e2e acceptance test: a
// federation where one site answers ~30ms slower than the rest must
// produce proxy exemplars whose critical-path attribution names that
// site's WAN leg as the dominant tail cause — and the federation-wide
// scrape must report the Σ yields = D_A accounting invariant intact
// and merge the proxy- and node-side exemplars of the same query by
// trace id.
func TestFederationTailAttribution(t *testing.T) {
	addrs := startFederation(t, catalog.SiteSpec, faultnet.Faults{Latency: 30 * time.Millisecond})

	c, err := wire.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Traced queries against the slow site: the minted ids let the
	// federation scrape join the proxy and node exemplars.
	var traces []string
	for i := 0; i < 4; i++ {
		id := obs.NewID()
		traces = append(traces, obs.FormatID(id))
		if _, err := c.QueryTraced("select z, zconf from specobj where z < 3", id); err != nil {
			t.Fatal(err)
		}
	}
	// A fast-site query for contrast; must not dominate attribution.
	if _, err := c.Query("select ra from photoobj where ra < 10"); err != nil {
		t.Fatal(err)
	}

	// The proxy's own recorder: every slow-site query breached the 5ms
	// threshold and the WAN leg to the slow site dominates.
	ex, err := c.Scrape(wire.ScrapeMsg{Outcome: flightrec.OutcomeSlow})
	if err != nil {
		t.Fatal(err)
	}
	wantCause := "wan:" + catalog.SiteSpec
	slowDominant := 0
	for _, e := range ex.Exemplars {
		if e.Cause == wantCause {
			slowDominant++
			if e.CauseUS < 25_000 {
				t.Fatalf("slow-site attribution too small: %+v", e)
			}
		}
	}
	if slowDominant == 0 {
		t.Fatalf("no exemplar blames %s: %+v", wantCause, ex.Exemplars)
	}

	// Federation-wide scrape: invariant satisfied, attribution table
	// ranks the slow site first, traces merge across daemons.
	out, err := by("federation", "-addrs", strings.Join(addrs, ","), "-top", "10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Σ yields") || !strings.Contains(out, "SATISFIED") {
		t.Fatalf("invariant not verified:\n%s", out)
	}
	if strings.Contains(out, "VIOLATED") || strings.Contains(out, "MISMATCH") {
		t.Fatalf("invariant violated:\n%s", out)
	}
	if !strings.Contains(out, wantCause) {
		t.Fatalf("federation attribution missing %s:\n%s", wantCause, out)
	}
	// Attribution ranking: the slow WAN leg's row carries the largest
	// attributed time, so it renders before every other cause.
	if i, j := strings.Index(out, wantCause), strings.Index(out, "server-execute"); j >= 0 && i > j {
		t.Fatalf("slow site is not the top-ranked cause:\n%s", out)
	}
	merged := false
	for _, tr := range traces {
		if strings.Count(out, tr) > 0 && strings.Contains(out, "daemon views") {
			merged = true
		}
	}
	if !merged {
		t.Fatalf("no merged trace rendered:\n%s", out)
	}

	// The single-daemon tail view renders the same story.
	if out, err = by("tail", "-addr", addrs[0], "-top", "5"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, wantCause) || !strings.Contains(out, "tail attribution") {
		t.Fatalf("tail view missing attribution:\n%s", out)
	}

	// -trace-id narrows it to one query: that exemplar alone, its
	// phases, and its one sub-query leg drawn as a bar.
	if out, err = by("tail", "-addr", addrs[0], "-trace-id", traces[1], "-top", "5"); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "trace ") != 1 || !strings.Contains(out, "trace "+traces[1]) {
		t.Fatalf("-trace-id view is not of %s alone:\n%s", traces[1], out)
	}
	if !strings.Contains(out, "phases: execute") || strings.Count(out, "|  subquery "+catalog.SiteSpec) != 1 || !strings.Contains(out, "|===") {
		t.Fatalf("-trace-id view lacks the phases or the leg's bar:\n%s", out)
	}
}

// TestFederationInvariantUnderLoad: a healthy proxy answering queries
// while it is scraped satisfies the identity in every scrape. Its
// metrics and its accounting are read under two holds of the decision
// lock, between which queries land; each is checked on its own.
func TestFederationInvariantUnderLoad(t *testing.T) {
	addrs := startFederation(t, "", faultnet.Faults{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, sql := range []string{"select ra from photoobj where ra < 10", "select z from specobj where z < 3"} {
		c, err := wire.Dial(addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Query(sql); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)

	before, err := wire.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	first, err := before.Scrape(wire.ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		out, err := by("federation", "-addrs", addrs[0], "-top", "1")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "SATISFIED") || strings.Contains(out, "MISMATCH") {
			t.Fatalf("scrape %d of a healthy proxy under load:\n%s", i, out)
		}
	}
	last, err := before.Scrape(wire.ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if last.Acct.Queries == first.Acct.Queries {
		t.Fatal("no query ran while the proxy was scraped")
	}
}

// TestFederationUnreachable: a scrape set with a dead address must
// degrade per node, not fail the whole report.
func TestFederationUnreachable(t *testing.T) {
	addrs := startFederation(t, "", faultnet.Faults{})
	c, err := wire.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("select ra from photoobj where ra < 10"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	dead := "127.0.0.1:1" // reserved port; connect refuses immediately
	out, err := by("federation", "-addrs", strings.Join(append(addrs, dead), ","), "-top", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "UNREACHABLE") {
		t.Fatalf("dead daemon not reported:\n%s", out)
	}
	if !strings.Contains(out, "Σ yields") || !strings.Contains(out, "SATISFIED") {
		t.Fatalf("reachable proxies not verified:\n%s", out)
	}
}

// framesRx reads what a daemon's wire.frames_rx family has counted, in
// all and of scrape frames, by a scrape of its own, which it counts.
func framesRx(t *testing.T, addr string) (all, scrapes int64) {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Scrape(wire.ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ctr := range res.Snapshot.Counters {
		if ctr.Name == "wire.frames_rx" {
			all += ctr.Value
			if ctr.Label == "scrape" {
				scrapes += ctr.Value
			}
		}
	}
	return all, scrapes
}

// TestOneScrapePerDaemonPerRender: every live view reads each daemon it
// draws in one round trip, a MsgScrape and no other frame — watch once
// per sample. A proxy and a node count the frames they read in
// wire.frames_rx; between two reads of it, one render adds its scrapes
// and the second read one more.
func TestOneScrapePerDaemonPerRender(t *testing.T) {
	addrs := startFederation(t, "", faultnet.Faults{})
	c, err := wire.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"select ra from photoobj where ra < 10", "select z from specobj where z < 3"} {
		if _, err := c.QueryTraced(sql, obs.NewID()); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	proxy, node := addrs[0], addrs[1]
	cmd := func(argv ...string) func() error {
		return func() error { _, err := by(argv...); return err }
	}
	all := strings.Join(addrs, ",")
	for _, v := range []struct {
		name    string
		daemons []string
		render  func() error
		scrapes int64 // per daemon
	}{
		{"federation", addrs, cmd("federation", "-addrs", all, "-top", "5"), 1},
		{"federation -json", addrs, cmd("federation", "-addrs", all, "-top", "5", "-json"), 1},
		{"tail", []string{proxy}, cmd("tail", "-addr", proxy, "-top", "5"), 1},
		{"tail of a node", []string{node}, cmd("tail", "-addr", node, "-top", "5"), 1},
		{"decisions", []string{proxy}, cmd("decisions", "-addr", proxy, "-top", "5"), 1},
		{"metrics", []string{node}, cmd("metrics", "-addr", node), 1},
		{"stats", []string{proxy}, cmd("stats", "-addr", proxy), 1},
		{"watch", []string{proxy}, func() error {
			return watch(context.Background(), io.Discard, &endpoint{proxy, time.Second}, time.Millisecond, 3)
		}, 4},
	} {
		before := make([][2]int64, len(v.daemons))
		for i, addr := range v.daemons {
			before[i][0], before[i][1] = framesRx(t, addr)
		}
		if err := v.render(); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		for i, addr := range v.daemons {
			all, scrapes := framesRx(t, addr)
			if want := v.scrapes + 1; all-before[i][0] != want || scrapes-before[i][1] != want {
				t.Errorf("%s: %s read %d frames, %d of them scrapes, want %d scrapes and nothing else",
					v.name, addr, all-before[i][0], scrapes-before[i][1], want)
			}
		}
	}
}
