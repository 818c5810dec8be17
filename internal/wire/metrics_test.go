package wire

import (
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/obs/ledger"
)

// TestEndToEndMetricsReconcile is the acceptance test of the obs
// subsystem: after a mixed workload against a live federation, the
// scrape's snapshot must carry per-site RPC latency histograms and
// per-policy decision counts, and the core byte counters must
// reconcile with the mediator's Figure-1 accounting — in particular
// the conservation law D_A = D_S + D_C.
func TestEndToEndMetricsReconcile(t *testing.T) {
	cap := catalog.EDR().TotalBytes()
	client, nodes, shutdown := federationWithNodes(t,
		core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), federation.Columns)
	defer shutdown()

	// Enough repeats of a fat query to drive bypass → load → hit.
	for i := 0; i < 8; i++ {
		if _, err := client.Query("select ra, dec from photoobj where ra between 0 and 350"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Query("select z from specobj where z < 3"); err != nil {
		t.Fatal(err)
	}

	sc, err := client.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Source != "byproxyd" {
		t.Fatalf("source = %q", sc.Source)
	}
	snap := sc.Snapshot

	// Per-site node RPC latency histograms.
	for _, site := range []string{catalog.SitePhoto, catalog.SiteSpec} {
		h, ok := snap.HistogramSnap("wire.rpc_latency_us", site)
		if !ok || h.Count == 0 {
			t.Fatalf("no RPC latency histogram for site %s (ok=%v)", site, ok)
		}
	}

	// Per-policy decision counts must equal the accounting's.
	acct := sc.Acct
	for verdict, want := range map[string]int64{
		"hit": acct.Hits, "bypass": acct.Bypasses, "load": acct.Loads,
	} {
		if got := snap.CounterValue("core.decisions", "rate-profile/"+verdict); got != want {
			t.Fatalf("decisions[%s] = %d, accounting says %d", verdict, got, want)
		}
	}

	// Figure-1 byte flows, including D_A = D_S + D_C.
	ds := snap.CounterValue("core.bypass_bytes", "")
	dl := snap.CounterValue("core.fetch_bytes", "")
	dc := snap.CounterValue("core.cache_bytes", "")
	if ds != acct.BypassBytes || dl != acct.FetchBytes || dc != acct.CacheBytes {
		t.Fatalf("flows (D_S,D_L,D_C) = (%d,%d,%d), accounting = (%d,%d,%d)",
			ds, dl, dc, acct.BypassBytes, acct.FetchBytes, acct.CacheBytes)
	}
	if ds+dc != acct.DeliveredBytes() {
		t.Fatalf("D_A violated: %d + %d != %d", ds, dc, acct.DeliveredBytes())
	}
	if got := snap.CounterValue("core.yield_bytes", ""); got != acct.YieldBytes {
		t.Fatalf("yield_bytes = %d, want %d", got, acct.YieldBytes)
	}

	// Federation layer: query counts and mediation latency.
	if got := snap.CounterValue("federation.queries", ""); got != sc.Acct.Queries {
		t.Fatalf("federation.queries = %d, want %d", got, sc.Acct.Queries)
	}
	if h, ok := snap.HistogramSnap("federation.query_latency_us", ""); !ok || h.Count != sc.Acct.Queries {
		t.Fatalf("query latency count = %+v, want %d observations", h, sc.Acct.Queries)
	}
	if got := snap.CounterValue("federation.objects_touched", ""); got != acct.Accesses {
		t.Fatalf("objects_touched = %d, want %d accesses", got, acct.Accesses)
	}

	// Wire layer: the transport counters in stats come from the same
	// registry, and client frames were counted per message type.
	if snap.CounterValue("wire.node_tx_bytes", "") != sc.TransportTx {
		t.Fatal("stats TransportTx diverges from registry")
	}
	if got := snap.CounterValue("wire.frames_rx", "query"); got != sc.Acct.Queries {
		t.Fatalf("frames_rx[query] = %d, want %d", got, sc.Acct.Queries)
	}
	if snap.CounterValue("wire.client_conns_opened", "") == 0 {
		t.Fatal("client connection churn not counted")
	}

	// Both ends of a node connection count the same bytes: what the proxy
	// sent its nodes is what they read as queries and fetches, and what it
	// read back is what they sent as results, fetch acks and errors. A
	// node counts a reply once it is written, so the nodes are read once
	// shutdown has closed their connections and waited for their loops.
	shutdown()
	var rx, tx int64
	for _, n := range nodes {
		ns := n.Obs().Snapshot()
		rx += ns.CounterValue("wire.bytes_rx", "query") + ns.CounterValue("wire.bytes_rx", "fetch")
		tx += ns.CounterValue("wire.bytes_tx", "result") + ns.CounterValue("wire.bytes_tx", "fetch_ack") +
			ns.CounterValue("wire.bytes_tx", "error")
	}
	if sent := snap.CounterValue("wire.node_tx_bytes", ""); rx != sent || rx == 0 {
		t.Errorf("the nodes read %d bytes of queries and fetches, the proxy sent them %d", rx, sent)
	}
	if read := snap.CounterValue("wire.node_rx_bytes", ""); tx != read || tx == 0 {
		t.Errorf("the nodes sent %d bytes of replies, the proxy read %d", tx, read)
	}
}

// TestDBNodeMetrics asserts a database node answers MsgScrape with
// its own registry, including the engine's scan counters.
func TestDBNodeMetrics(t *testing.T) {
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 100000})
	if err != nil {
		t.Fatal(err)
	}
	n := NewDBNode(catalog.SiteSpec, db)
	n.SetLogf(func(string, ...any) {})
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("select z from specobj where z < 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("select ra from photoobj where ra < 10"); err == nil {
		t.Fatal("foreign table should error")
	}
	m, err := c.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != "bydbd:"+catalog.SiteSpec {
		t.Fatalf("source = %q", m.Source)
	}
	snap := m.Snapshot
	if snap.CounterValue("dbnode.queries", "") != 1 {
		t.Fatalf("dbnode.queries = %d, want 1", snap.CounterValue("dbnode.queries", ""))
	}
	if got := snap.CounterValue("wire.frames_tx", "error"); got != 1 {
		t.Fatalf("wire.frames_tx{error} = %d, want 1", got)
	}
	if snap.CounterValue("engine.rows_scanned", "") == 0 {
		t.Fatal("engine scan counters not shared with the node registry")
	}
	if snap.CounterValue("wire.bytes_tx", "result") == 0 || snap.CounterValue("wire.bytes_rx", "query") == 0 {
		t.Fatal("transport byte counters empty")
	}
}

// TestProxyRPCTimeout starts a "node" that accepts connections and
// never answers: the proxy's RPC deadline must fire, the query must
// still succeed (the RPC loss is logged, not fatal), and the timeout
// must be counted.
func TestProxyRPCTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never respond
		}
	}()

	p, c, done := newSimProxy(t, map[string]string{catalog.SitePhoto: ln.Addr().String()})
	defer done()
	p.SetRPCTimeout(100 * time.Millisecond)

	start := time.Now()
	res, err := c.Query("select ra from photoobj where ra < 100") // bypass → subquery RPC
	if err != nil {
		t.Fatalf("query should survive a hung node: %v", err)
	}
	if res.Rows <= 0 {
		t.Fatal("no rows")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("query blocked %v on a hung node", elapsed)
	}
	snap := p.Obs().Snapshot()
	if snap.CounterValue("wire.rpc_timeouts", catalog.SitePhoto) == 0 {
		t.Fatalf("timeout not counted: %+v", snap.Counters)
	}
	if snap.CounterValue("wire.rpc_retries", catalog.SitePhoto) != 0 {
		t.Fatal("a timed-out RPC must not be retried")
	}
}

// TestProxyReconnectRetry serves a node whose first connection dies
// after one request: the proxy must retry once over a fresh
// connection and succeed.
func TestProxyReconnectRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var nconns int
	var mu sync.Mutex
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			nconns++
			first := nconns == 1
			mu.Unlock()
			go func(conn net.Conn, first bool) {
				defer conn.Close()
				served := 0
				for {
					_, _, _, err := ReadFrame(conn)
					if err != nil {
						return
					}
					if first && served >= 1 {
						return // kill the cached connection mid-RPC
					}
					WriteFrame(conn, MsgResult, &ResultMsg{})
					served++
				}
			}(conn, first)
		}
	}()

	p, _, done := newSimProxy(t, map[string]string{catalog.SitePhoto: ln.Addr().String()})
	defer done()
	p.SetRPCTimeout(2 * time.Second)

	// RPC 1 dials and succeeds, leaving the connection cached. The
	// fake node then kills conn 1 on its next request, so RPC 2 fails
	// the read on a cached connection, retries over a fresh dial, and
	// succeeds.
	sub := leg{site: catalog.SitePhoto, sql: "select ra from photoobj"}
	if err := p.runLeg(sub, 0, nil, nil); err != nil {
		t.Fatalf("first ship failed: %v", err)
	}
	if err := p.runLeg(sub, 0, nil, nil); err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	snap := p.Obs().Snapshot()
	if snap.CounterValue("wire.rpc_retries", catalog.SitePhoto) != 1 {
		t.Fatalf("retries = %d, want 1", snap.CounterValue("wire.rpc_retries", catalog.SitePhoto))
	}
	if snap.CounterValue("wire.node_dials", catalog.SitePhoto) != 2 {
		t.Fatalf("dials = %d, want 2", snap.CounterValue("wire.node_dials", catalog.SitePhoto))
	}
	// The recovered connection stays cached: another RPC, no new dial.
	if err := p.runLeg(sub, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Obs().Snapshot().CounterValue("wire.node_dials", catalog.SitePhoto); got != 2 {
		t.Fatalf("dials after steady RPC = %d, want 2", got)
	}
}

// TestMetricSurface pins the metrics a proxy's and a node's scrape
// carry after a few queries — bypasses, a load, hits, a fetch — as
// TestFlagSurface pins each daemon's flags: adding, renaming or
// removing a metric, or changing its kind, is a reviewed edit of these
// lists.
func TestMetricSurface(t *testing.T) {
	s := catalog.EDR()
	open := func() *engine.DB {
		db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 100000})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	quiet := func(string, ...any) {}
	flight := flightrec.Config{Threshold: time.Hour, SampleEvery: 1}
	node := NewDBNode(catalog.SitePhoto, open())
	node.SetLogf(quiet)
	node.SetFlightConfig(flight)
	naddr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	db := open()
	reg := obs.NewRegistry()
	db.SetObs(reg)
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Granularity: federation.Columns, Obs: reg,
		Policy: core.NewRateProfile(core.RateProfileConfig{Capacity: s.TotalBytes()}),
		Ledger: ledger.New(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewProxy(med, federation.Columns, map[string]string{catalog.SitePhoto: naddr})
	proxy.SetLogf(quiet)
	proxy.SetFlightConfig(flight)
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
	seen := [3]int64{}
	for i := 0; i < 8; i++ {
		res, err := client.Query("select ra, dec from photoobj where ra between 0 and 350")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Decisions {
			for k, v := range []string{"hit", "bypass", "load"} {
				if d.Decision == v {
					seen[k]++
				}
			}
		}
	}
	if seen[0] == 0 || seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("hits, bypasses, loads = %v: the queries do not exercise every decision", seen)
	}

	pm, err := client.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := Dial(naddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nm, err := nc.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		daemon string
		snap   obs.Snapshot
		want   []string
	}{
		{"proxy", pm.Snapshot, proxyMetrics},
		{"node", nm.Snapshot, nodeMetrics},
	} {
		if got := metricNames(c.snap); strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s metrics:\n\t%s\nwant\n\t%s", c.daemon, strings.Join(got, "\n\t"), strings.Join(c.want, "\n\t"))
		}
	}
}

// metricNames lists a snapshot's metrics as "<kind> <name>", sorted,
// each once whatever its labels.
func metricNames(s obs.Snapshot) []string {
	set := map[string]bool{}
	for _, c := range s.Counters {
		set["counter "+c.Name] = true
	}
	for _, g := range s.Gauges {
		set["gauge "+g.Name] = true
	}
	for _, h := range s.Histograms {
		set["histogram "+h.Name] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// proxyMetrics is byproxyd's scrape in TestMetricSurface.
var proxyMetrics = []string{
	"counter core.accesses",
	"counter core.bypass_bytes",
	"counter core.cache_bytes",
	"counter core.decisions",
	"counter core.degraded_queries",
	"counter core.episodes_closed",
	"counter core.episodes_opened",
	"counter core.fetch_bytes",
	"counter core.stale_served_bytes",
	"counter core.yield_bytes",
	"counter engine.queries",
	"counter engine.rows_scanned",
	"counter engine.yield_bytes",
	"counter federation.objects_touched",
	"counter federation.queries",
	"counter obs.exemplars",
	"counter wire.bytes_rx",
	"counter wire.bytes_tx",
	"counter wire.client_conns_closed",
	"counter wire.client_conns_opened",
	"counter wire.frames_rx",
	"counter wire.frames_tx",
	"counter wire.node_dials",
	"counter wire.node_rx_bytes",
	"counter wire.node_tx_bytes",
	"gauge core.bytes_saved_vs_bypass",
	"gauge core.legs_inflight",
	"gauge core.query_concurrency",
	"gauge runtime.gc_cycles",
	"gauge runtime.goroutines",
	"gauge runtime.heap_alloc_bytes",
	"gauge runtime.heap_objects",
	"gauge runtime.heap_sys_bytes",
	"gauge runtime.sched_latency_p50_us",
	"gauge runtime.sched_latency_p99_us",
	"gauge wire.breaker_state",
	"gauge wire.pool_active",
	"gauge wire.pool_idle",
	"histogram core.decide_seconds",
	"histogram core.decide_wait_us",
	"histogram federation.query_latency_us",
	"histogram runtime.gc_pause_us",
	"histogram wire.rpc_latency_us",
}

// nodeMetrics is bydbd's scrape in TestMetricSurface.
var nodeMetrics = []string{
	"counter dbnode.fetches",
	"counter dbnode.queries",
	"counter engine.queries",
	"counter engine.rows_scanned",
	"counter engine.yield_bytes",
	"counter obs.exemplars",
	"counter wire.bytes_rx",
	"counter wire.bytes_tx",
	"counter wire.client_conns_closed",
	"counter wire.client_conns_opened",
	"counter wire.frames_rx",
	"counter wire.frames_tx",
	"gauge runtime.gc_cycles",
	"gauge runtime.goroutines",
	"gauge runtime.heap_alloc_bytes",
	"gauge runtime.heap_objects",
	"gauge runtime.heap_sys_bytes",
	"gauge runtime.sched_latency_p50_us",
	"gauge runtime.sched_latency_p99_us",
	"histogram runtime.gc_pause_us",
}
