package wire

import (
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
)

// TestViewDecisionsReachTheOwningNode: at view granularity a decision
// about a materialized view is a decision about its base table's site.
// A bypassed view ships exactly one sub-query to that site — it used to
// ship none, the view's id naming no FROM table — and a loaded view
// exactly one fetch; the other sites see nothing.
func TestViewDecisionsReachTheOwningNode(t *testing.T) {
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 50000})
	if err != nil {
		t.Fatal(err)
	}
	quiet := func(string, ...any) {}
	nodes := map[string]*DBNode{}
	addrs := map[string]string{}
	for _, site := range catalog.Sites(s) {
		n := NewDBNode(site, db)
		n.SetLogf(quiet)
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[site], addrs[site] = n, addr
	}
	// The star view is loaded on first touch; everything else bypasses.
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Granularity: federation.Views,
		Policy: &pinned{id: federation.ViewObjectID(s.Name, "star")},
		Obs:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewProxy(med, federation.Views, addrs)
	proxy.SetLogf(quiet)
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

	// received reads how many sub-queries and fetches each node has
	// served so far.
	type served struct{ queries, fetches int64 }
	received := func() map[string]served {
		out := map[string]served{}
		for site, n := range nodes {
			snap := n.Obs().Snapshot()
			out[site] = served{snap.CounterValue("dbnode.queries", ""), snap.CounterValue("dbnode.fetches", "")}
		}
		return out
	}
	steps := []struct {
		sql, object, decision string
		photo                 served // cumulative, at the photo site
	}{
		{"select ra, dec from photoobj where type = 3 and ra between 100 and 140", "edr/view:galaxy", "bypass", served{1, 0}},
		{"select ra, dec from photoobj where type = 6 and ra between 100 and 140", "edr/view:star", "load", served{1, 1}},
		{"select ra, dec from photoobj where type = 6 and ra between 100 and 140", "edr/view:star", "hit", served{1, 1}},
		{"select ra, dec from photoobj where ra between 100 and 140", "edr/photoobj", "bypass", served{2, 1}},
	}
	for _, step := range steps {
		res, err := client.Query(step.sql)
		if err != nil {
			t.Fatalf("%s: %v", step.sql, err)
		}
		if len(res.Decisions) != 1 || res.Decisions[0].Object != step.object || res.Decisions[0].Decision != step.decision {
			t.Fatalf("%s: decisions %+v, want one %s of %s", step.sql, res.Decisions, step.decision, step.object)
		}
		if len(res.TransportErrors) != 0 {
			t.Fatalf("%s: transport errors %+v", step.sql, res.TransportErrors)
		}
		for site, got := range received() {
			want := served{}
			if site == catalog.SitePhoto {
				want = step.photo
			}
			if got != want {
				t.Fatalf("after %s of %s: node %s served %+v, want %+v", step.decision, step.object, site, got, want)
			}
		}
	}
	if st, err := client.Scrape(ScrapeMsg{}); err != nil || st.TransportTx == 0 || st.TransportRx == 0 {
		t.Fatalf("proxy transport counters %+v (err %v): the legs moved no bytes", st, err)
	}
}
