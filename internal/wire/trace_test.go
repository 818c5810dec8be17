package wire

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
)

// tracedFederation is testFederation with every daemon's flight
// recorder keeping an exemplar of every query (byproxyd and bydbd
// -flight-sample 1); it also returns the proxy and the nodes by site.
func tracedFederation(t *testing.T, policy core.Policy, gran federation.Granularity) (*Client, *Proxy, map[string]*DBNode, func()) {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 50000})
	if err != nil {
		t.Fatal(err)
	}
	quiet := func(string, ...any) {}
	every := flightrec.Config{SampleEvery: 1}

	nodes := map[string]*DBNode{}
	addrs := map[string]string{}
	for _, site := range catalog.Sites(s) {
		n := NewDBNode(site, db)
		n.SetLogf(quiet)
		n.SetFlightConfig(every)
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[site] = n
		addrs[site] = addr
	}

	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: policy, Granularity: gran,
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewProxy(med, gran, addrs)
	proxy.SetLogf(quiet)
	proxy.SetFlightConfig(every)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	return client, proxy, nodes, func() {
		client.Close()
		proxy.Close()
		for _, n := range nodes {
			n.Close()
		}
	}
}

// TestEndToEndQueryRecords is the acceptance test of the per-query
// record: after a workload against a proxy and its database nodes under
// client-minted trace ids, the proxy holds one exemplar per client
// query; the exemplars' decision yields sum to the proxy's
// delivered-byte accounting (D_A = D_S + D_C, uniform net); every WAN
// leg in them names its site and is timed consistently; and every
// exemplar a node kept joins, by trace id, a proxy exemplar with a leg
// to that node's site — no node-side record is an orphan.
func TestEndToEndQueryRecords(t *testing.T) {
	cap := catalog.EDR().TotalBytes()
	client, proxy, nodes, shutdown := tracedFederation(t,
		core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), federation.Columns)
	defer shutdown()

	// A fat repeated query drives bypass → load → hit (exercising the
	// fetch leg), plus a cross-site join touching both nodes.
	statements := []string{6: `select p.objid, s.z from specobj s, photoobj p
		where p.objid = s.objid and s.z < 3`}
	for i := 0; i < 6; i++ {
		statements[i] = "select ra, dec from photoobj where ra between 0 and 350"
	}
	minted := map[string]bool{}
	for _, sql := range statements {
		id := obs.NewID()
		minted[obs.FormatID(id)] = true
		if _, err := client.QueryTraced(sql, id); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	// A node closes its capture after it has replied: wait the daemons
	// out before reading their recorders.
	shutdown()

	legSites := map[string]map[string]bool{} // trace id → sites its legs reached
	var yieldSum int64
	kinds := map[string]int{}
	for _, e := range proxy.Flight().Snapshot() {
		if !minted[e.Trace] || legSites[e.Trace] != nil {
			t.Fatalf("proxy exemplar #%d has trace %q: not a client id, or its second exemplar", e.Seq, e.Trace)
		}
		legSites[e.Trace] = map[string]bool{}
		for _, d := range e.Decisions {
			yieldSum += d.Yield
		}
		for _, l := range e.Legs {
			if (l.Kind != "fetch" && l.Kind != "subquery") || l.Site == "" || l.StartUS < 0 || l.WallUS < l.RPCUS || l.Err != "" {
				t.Fatalf("trace %s: leg %+v", e.Trace, l)
			}
			kinds[l.Kind]++
			legSites[e.Trace][l.Site] = true
		}
	}
	if len(legSites) != len(statements) {
		t.Fatalf("proxy exemplars = %d, want %d (one per client query)", len(legSites), len(statements))
	}
	if kinds["fetch"] == 0 || kinds["subquery"] == 0 {
		t.Fatalf("legs by kind = %v, want loads and bypasses both", kinds)
	}
	// Under uniform network costs every access's yield is delivered
	// either by bypass (D_S) or from the cache (D_C), so the sum over the
	// records equals D_A exactly.
	if da := st.Acct.DeliveredBytes(); yieldSum != da {
		t.Fatalf("sum of exemplar decision yields = %d, accounting D_A = %d", yieldSum, da)
	}

	for _, site := range []string{catalog.SitePhoto, catalog.SiteSpec} {
		exs := nodes[site].Flight().Snapshot()
		if len(exs) == 0 {
			t.Fatalf("node %s kept no exemplar of its sub-queries", site)
		}
		for _, e := range exs {
			if !legSites[e.Trace][site] {
				t.Fatalf("node %s exemplar #%d (trace %q) joins no proxy exemplar with a leg to %s", site, e.Seq, e.Trace, site)
			}
		}
	}
}

// TestTracedFederationMetricsEndpoint serves the proxy's registry over
// the HTTP telemetry plane after a workload and checks the exposition
// is well-formed Prometheus text carrying the Figure-1 flows.
func TestTracedFederationMetricsEndpoint(t *testing.T) {
	cap := catalog.EDR().TotalBytes()
	client, proxy, _, shutdown := tracedFederation(t,
		core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), federation.Columns)
	defer shutdown()

	for i := 0; i < 4; i++ {
		if _, err := client.Query("select ra, dec from photoobj where ra between 0 and 350"); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := obs.StartHTTP("127.0.0.1:0", obs.NewHTTPHandler(proxy.Obs().Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	out := string(body)

	// Well-formed exposition: every non-comment line is a sample;
	// every sample belongs to a # TYPE'd family.
	sampleRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.e+-]+$`)
	typed := map[string]bool{}
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	for _, line := range bytes.Split(body, []byte("\n")) {
		l := string(line)
		if l == "" {
			continue
		}
		if m := typeRe.FindStringSubmatch(l); m != nil {
			typed[m[1]] = true
			continue
		}
		if !sampleRe.MatchString(l) {
			t.Fatalf("malformed exposition line: %q", l)
		}
		name := nameRe.FindString(l)
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := bytes.CutSuffix([]byte(name), []byte(suf)); ok {
				base = string(cut)
				break
			}
		}
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no preceding # TYPE", name)
		}
	}

	// The Figure-1 flows are exported as counters, and one exposition
	// reads them at one instant: D_A = D_S + D_C in the text itself.
	flow := map[string]int64{}
	for _, name := range []string{"core_yield_bytes", "core_bypass_bytes", "core_fetch_bytes", "core_cache_bytes", "federation_queries"} {
		m := regexp.MustCompile(`(?m)^` + name + ` ([0-9]+)$`).FindStringSubmatch(out)
		if m == nil || !typed[name] {
			t.Fatalf("/metrics missing counter %s", name)
		}
		flow[name], _ = strconv.ParseInt(m[1], 10, 64)
	}
	if flow["federation_queries"] != 4 || flow["core_yield_bytes"] == 0 {
		t.Fatalf("/metrics after 4 queries: %v", flow)
	}
	if flow["core_yield_bytes"] != flow["core_bypass_bytes"]+flow["core_cache_bytes"] {
		t.Fatalf("/metrics breaks D_A = D_S + D_C: %v", flow)
	}
}
