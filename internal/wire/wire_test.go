package wire

import (
	"bytes"
	"strings"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := QueryMsg{SQL: "select ra from photoobj"}
	n, err := WriteFrame(&buf, MsgQuery, msg)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	typ, body, rn, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgQuery || rn != n {
		t.Fatalf("type %d len %d, want %d/%d", typ, rn, MsgQuery, n)
	}
	var got QueryMsg
	if err := Decode(body, &got); err != nil {
		t.Fatal(err)
	}
	if got != msg {
		t.Fatalf("got %+v", got)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	if _, _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame should be rejected")
	}
}

func TestFrameShortRead(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 1, 'x'})
	if _, _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame should error")
	}
}

// testFederation starts nodes for every site of EDR plus a proxy with
// the given policy, returning a connected client and a shutdown func.
func testFederation(t *testing.T, policy core.Policy, gran federation.Granularity) (*Client, func()) {
	t.Helper()
	client, _, shutdown := federationWithNodes(t, policy, gran)
	return client, shutdown
}

// federationWithNodes is testFederation that also returns the nodes.
func federationWithNodes(t *testing.T, policy core.Policy, gran federation.Granularity) (*Client, []*DBNode, func()) {
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
		Obs: obs.NewRegistry(),
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
	return client, nodes, func() {
		client.Close()
		proxy.Close()
		for _, n := range nodes {
			n.Close()
		}
	}
}

func TestEndToEndQuery(t *testing.T) {
	cap := catalog.EDR().TotalBytes() / 2
	client, shutdown := testFederation(t,
		core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), federation.Columns)
	defer shutdown()

	res, err := client.Query("select ra, dec from photoobj where ra between 100 and 140")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows <= 0 || res.Bytes <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Decisions) != 2 {
		t.Fatalf("decisions = %d, want 2 (ra, dec)", len(res.Decisions))
	}
	var yield int64
	for _, d := range res.Decisions {
		if d.Decision != "bypass" {
			t.Fatalf("first-touch decision = %s, want bypass", d.Decision)
		}
		yield += d.Yield
	}
	if len(res.Tuples) == 0 || len(res.Tuples[0]) != len(res.Columns) {
		t.Fatalf("%d tuples for columns %v", len(res.Tuples), res.Columns)
	}
	// What the client decoded is what the mediator accounted: Σ
	// ResultMsg.Bytes = Σ decision yields = D_A. (The result is the
	// client's until its next call: what is compared is copied first.)
	bytes := res.Bytes
	st, err := client.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes != st.Acct.YieldBytes || yield != st.Acct.YieldBytes {
		t.Fatalf("result bytes %d, decision yields %d, D_A %d", bytes, yield, st.Acct.YieldBytes)
	}
}

func TestEndToEndCachingTransitions(t *testing.T) {
	cap := catalog.EDR().TotalBytes()
	client, shutdown := testFederation(t,
		core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), federation.Columns)
	defer shutdown()

	sql := "select ra, dec from photoobj where ra between 0 and 350"
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		res, err := client.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Decisions {
			seen[d.Decision] = true
		}
	}
	// Over repeats of a fat query the cache must transition from
	// bypass through load to hit.
	for _, want := range []string{"bypass", "load", "hit"} {
		if !seen[want] {
			t.Fatalf("decision %q never observed; saw %v", want, seen)
		}
	}
}

func TestEndToEndStats(t *testing.T) {
	cap := catalog.EDR().TotalBytes()
	client, shutdown := testFederation(t,
		core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), federation.Tables)
	defer shutdown()

	for i := 0; i < 3; i++ {
		if _, err := client.Query("select z, zconf from specobj where z < 3"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Acct.Queries != 3 {
		t.Fatalf("queries = %d, want 3", st.Acct.Queries)
	}
	if st.Policy != "rate-profile" || st.Granularity != "tables" {
		t.Fatalf("stats = %+v", st)
	}
	if st.Acct.DeliveredBytes() != st.Acct.YieldBytes {
		t.Fatal("flow conservation violated in proxy accounting")
	}
	if st.TransportTx == 0 || st.TransportRx == 0 {
		t.Fatal("node RPC transport counters should be nonzero (bypasses occurred)")
	}
}

func TestEndToEndJoinAcrossSites(t *testing.T) {
	client, shutdown := testFederation(t, nil, federation.Tables)
	defer shutdown()

	res, err := client.Query(`select p.objid, s.z from specobj s, photoobj p
		where p.objid = s.objid and s.z < 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows <= 0 {
		t.Fatal("join should produce rows")
	}
	sites := map[string]bool{}
	for _, d := range res.Decisions {
		sites[d.Site] = true
	}
	if !sites[catalog.SitePhoto] || !sites[catalog.SiteSpec] {
		t.Fatalf("join should touch both sites, got %v", sites)
	}
}

func TestEndToEndErrors(t *testing.T) {
	client, shutdown := testFederation(t, nil, federation.Tables)
	defer shutdown()

	if _, err := client.Query("not sql at all"); err == nil {
		t.Fatal("parse error should propagate to client")
	}
	if _, err := client.Query("select ghost from photoobj"); err == nil {
		t.Fatal("bind error should propagate to client")
	}
	// The connection must survive errors.
	if _, err := client.Query("select ra from photoobj where ra < 10"); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

// TestAggregateOverStarIsRefused: sum, avg, min and max over * parse,
// and used to bind with no column and crash the executor — a nil
// dereference in a connection goroutine, which neither daemon recovers
// from, so one client statement stopped the proxy. Bind refuses them
// now: the proxy and a node each answer with a MsgError and keep
// serving on the same connection.
func TestAggregateOverStarIsRefused(t *testing.T) {
	client, shutdown := testFederation(t, nil, federation.Tables)
	defer shutdown()
	_, naddr := listenNode(t, catalog.SitePhoto, catalog.EDR(), engine.Config{Seed: 1, SampleEvery: 100000})
	node, err := Dial(naddr)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	for name, c := range map[string]*Client{"proxy": client, "node": node} {
		for _, sql := range []string{
			"select sum(*) from photoobj",
			"select avg(*) from photoobj where ra < 10",
			"select count(*), min(*) from photoobj",
			"select type, max(*) from photoobj group by type",
		} {
			_, err := c.Query(sql)
			if err == nil || !strings.Contains(err.Error(), "wire: server: engine: aggregate over * other than count") {
				t.Fatalf("%s: %s: err = %v, want the bind error as a MsgError", name, sql, err)
			}
		}
		res, err := c.Query("select count(*), sum(ra) from photoobj")
		if err != nil || len(res.Tuples) != 1 {
			t.Fatalf("%s: the connection after the refusals: %+v, %v", name, res, err)
		}
	}
}

func TestDBNodeRejectsForeignTables(t *testing.T) {
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
	if _, err := c.Query("select ra from photoobj where ra < 10"); err == nil {
		t.Fatal("node must reject tables of other sites")
	}
	if !strings.Contains(errString(c.Query("select ra from photoobj where ra < 10")), "owned by") {
		t.Fatal("rejection should name the owner")
	}
	if _, err := c.Query("select z from specobj where z < 1"); err != nil {
		t.Fatalf("own table should work: %v", err)
	}
}

func errString(res *ResultMsg, err error) string {
	if err != nil {
		return err.Error()
	}
	return ""
}

func TestDBNodeObjectSize(t *testing.T) {
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 100000})
	if err != nil {
		t.Fatal(err)
	}
	n := NewDBNode(catalog.SitePhoto, db)
	var galaxyBytes int64
	for _, v := range catalog.StandardViews(s) {
		if v.Name == "galaxy" {
			galaxyBytes = v.Bytes(s.Table("photoobj"))
		}
	}
	cases := []struct {
		object  string
		want    int64
		wantErr bool
	}{
		{"edr/photoobj", s.Table("photoobj").Bytes(), false},
		{"edr/photoobj.ra", 8 * s.Table("photoobj").Rows, false},
		{"edr/specobj", 0, true},    // foreign site
		{"dr1/photoobj", 0, true},   // wrong release
		{"edr/ghost", 0, true},      // unknown table
		{"edr/photoobj.x", 0, true}, // unknown column
		{"edr/view:galaxy", galaxyBytes, false},
		{"edr/view:lowzspec", 0, true}, // a view of a foreign-site table
		{"photoobj", 0, true},          // no release: the mediator never sends one
	}
	for _, tc := range cases {
		ack, err := n.fetchObject(FetchMsg{Object: tc.object})
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, wantErr = %v", tc.object, err, tc.wantErr)
		}
		if err == nil && (ack.Size != tc.want || ack.Object != tc.object) {
			t.Fatalf("%s: ack = %+v, want size %d", tc.object, ack, tc.want)
		}
	}
}
