package wire

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/sqlparse"
)

// TestRelayedRepliesMatchTheEngine is the relay's differential test: the
// federation benchmark's edr-bypass configuration on loopback (a cache of
// 0.1%, so nearly every statement bypasses) over the first 3 000 EDR
// statements, every reply held to the statement executed directly.
//
// With the nodes' engine built as the proxy's, every reply's rows, bytes,
// columns and tuples are the engine's, and a node executes exactly what
// was shipped to it: dbnode.queries ticks once for a bypassed statement
// whose tables are all its site's, and once per FROM table with a
// bypassed object for one that spans sites.
//
// With the nodes' engine at another sample, a relayed reply is not the
// result the mediator decided on. Where its rows or bytes differ, the
// client gets the local answer and a transport error naming the
// mismatch; where they cannot (an aggregate's one row, a grouping's
// groups, no match at either sample), the check cannot see the other
// sample and the node's answer is the client's. Either way D_A = D_S +
// D_C, and the client received D_A.
func TestRelayedRepliesMatchTheEngine(t *testing.T) {
	t.Run("same sample", func(t *testing.T) {
		n := relayDifferential(t, openEDR(t, 1000))
		t.Logf("%+v", n)
		if n.relayed == 0 || n.mismatched != 0 || n.nodeOnly != 0 {
			t.Errorf("%+v: want relays, all answered by the node's reply, none differing from the engine's", n)
		}
	})
	t.Run("another sample", func(t *testing.T) {
		n := relayDifferential(t, openEDR(t, 500))
		t.Logf("%+v", n)
		if n.mismatched == 0 || n.nodeOnly == 0 {
			t.Errorf("%+v: want mismatches answered locally, and replies the check cannot tell from the mediator's answered by the node", n)
		}
	})
}

// relayCounts tallies a differential run's single-site bypassed
// statements: relayed were answered with their node's reply, nodeOnly of
// them with tuples the proxy's engine does not have, and mismatched were
// answered locally.
type relayCounts struct {
	relayed, nodeOnly, mismatched int
}

// relayDifferential drives an edr-bypass federation whose nodes serve
// nodeDB and checks each reply against the statement executed directly
// on the proxy's engine (local) and on nodeDB (remote).
func relayDifferential(t *testing.T, nodeDB *engine.DB) relayCounts {
	f := edrFederation(t, 0.001, nodeDB, nil)
	defer f.close()
	s := f.db.Schema()
	queries := func() map[string]int64 {
		m := map[string]int64{}
		for site, n := range f.nodes {
			m[site] = n.queries.Value()
		}
		return m
	}
	var (
		counts    relayCounts
		delivered int64
	)
	for i, sql := range f.sqls {
		before := queries()
		got, err := f.client.Query(sql)
		if err != nil {
			t.Fatalf("%d: %s: %v", i, sql, err)
		}
		after := queries()
		b, local := execute(t, f.db, sql)
		_, remote := execute(t, nodeDB, sql)

		// What each node executed: the statement, or a sub-query per
		// table with a bypassed column (objects are "edr/table.column").
		bypassed := map[string]bool{}
		for _, d := range got.Decisions {
			if d.Decision == "bypass" {
				table, _, _ := strings.Cut(strings.TrimPrefix(d.Object, s.Name+"/"), ".")
				bypassed[table] = true
			}
		}
		site, single := oneSite(b)
		ticks := map[string]int64{}
		switch {
		case len(bypassed) == 0:
		case single:
			ticks[site] = 1
		default:
			for _, tab := range b.Tables {
				if bypassed[tab.Name] {
					ticks[tab.Site]++
				}
			}
		}
		for site := range f.nodes {
			if d := after[site] - before[site]; d != ticks[site] {
				t.Fatalf("%d: %s: dbnode.queries on %s ticked %d times, want %d", i, sql, site, d, ticks[site])
			}
		}

		want, wantErrs := local, 0
		if single && len(bypassed) > 0 {
			if remote.Rows == local.Rows && remote.Bytes == local.Bytes {
				want = remote
				counts.relayed++
				if sameAsEngine(got, local) != nil {
					counts.nodeOnly++
				}
			} else {
				wantErrs = 1
				counts.mismatched++
			}
		}
		if len(got.TransportErrors) != wantErrs {
			t.Fatalf("%d: %s: transport errors %+v, want %d", i, sql, got.TransportErrors, wantErrs)
		}
		if wantErrs == 1 {
			if e := got.TransportErrors[0]; e.Site != site || !strings.Contains(e.Error, "mismatch") {
				t.Fatalf("%d: %s: transport error %+v, want a mismatch at %s", i, sql, e, site)
			}
		}
		if err := sameAsEngine(got, want); err != nil {
			t.Fatalf("%d: %s: %v", i, sql, err)
		}
		delivered += got.Bytes
	}
	st, err := f.client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if a := st.Acct; a.DeliveredBytes() != a.YieldBytes || delivered != a.YieldBytes {
		t.Fatalf("D_S + D_C = %d, D_A = %d, Σ reply bytes = %d", a.DeliveredBytes(), a.YieldBytes, delivered)
	}
	return counts
}

// execute binds sql against db's schema and executes it there.
func execute(t *testing.T, db *engine.DB, sql string) (*engine.Bound, *engine.Result) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Bind(db.Schema(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecuteBound(b)
	if err != nil {
		t.Fatal(err)
	}
	return b, res
}

// sameAsEngine compares a reply with an engine result: rows, bytes, column
// names, and tuples bit for bit.
func sameAsEngine(got *ResultMsg, want *engine.Result) error {
	if got.Rows != want.Rows || got.Bytes != want.Bytes {
		return fmt.Errorf("rows, bytes = %d, %d, want %d, %d", got.Rows, got.Bytes, want.Rows, want.Bytes)
	}
	if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
		return fmt.Errorf("columns %v, want %v", got.Columns, want.Columns)
	}
	if len(got.Tuples) != len(want.Tuples) {
		return fmt.Errorf("%d tuples, want %d", len(got.Tuples), len(want.Tuples))
	}
	for r, row := range want.Tuples {
		if len(got.Tuples[r]) != len(row) {
			return fmt.Errorf("tuple %d has %d values, want %d", r, len(got.Tuples[r]), len(row))
		}
		for c, v := range row {
			if math.Float64bits(got.Tuples[r][c]) != math.Float64bits(v) {
				return fmt.Errorf("tuple %d value %d = %v, want %v", r, c, got.Tuples[r][c], v)
			}
		}
	}
	return nil
}

// TestNodeReadsPerReply is TestHitPathReadsPerFrame at the proxy's other
// end: a node's reply — a relayed statement's result, a sub-query's, a
// fetch's ack — comes off the pooled connection's reader with one Read
// once its buffer has grown, where reading the header and then draining
// the body took one Read and one per 8 KiB. The nodes are served over
// net.Pipe, one connection per site, on the edr-bypass configuration.
func TestNodeReadsPerReply(t *testing.T) {
	var (
		mu    sync.Mutex
		conns []*countedConn
	)
	f := edrFederation(t, 0.001, nil, func(p *Proxy, nodes map[string]*DBNode) {
		p.SetPoolConfig(PoolConfig{MaxActive: 1})
		p.SetDialer(func(site, _ string) (net.Conn, error) {
			near, far := net.Pipe()
			go nodes[site].serveConn(far)
			c := &countedConn{Conn: near}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			return c, nil
		})
	})
	defer f.close()
	replies := func() (n int64) {
		for _, node := range f.nodes {
			n += node.queries.Value() + node.fetches.Value() + node.errs.Value()
		}
		return n
	}
	pass := func() {
		for _, sql := range f.sqls {
			if _, err := f.client.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	pass() // the buffers grow
	mu.Lock()
	for _, c := range conns {
		c.reads.Store(0)
	}
	mu.Unlock()
	before := replies()
	pass()
	n := replies() - before
	var reads int64
	mu.Lock()
	for _, c := range conns {
		reads += c.reads.Load()
	}
	dialed := len(conns)
	mu.Unlock()
	t.Logf("%d Reads for %d node replies over %d connections", reads, n, dialed)
	if n == 0 || reads != n {
		t.Errorf("%d Reads for %d node replies, want one Read per reply", reads, n)
	}
}

// TestRelayedBypassAllocs is TestUntracedHitBuildsOnlyTheResult for a
// bypass: what the proxy adds to mediating a statement it relays — the
// leg, the RPC, decoding the node's reply into the connection's store —
// by difference, on a warmed connection to a real node, against what
// the parent added for the same bypass: the statement's sub-query built
// from the Bound and printed, then shipped and its reply dropped (which
// a degraded statement still does). The relay must allocate no more.
func TestRelayedBypassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	db := openEDR(t, 1000)
	s := db.Schema()
	quiet := func(string, ...any) {}
	node := NewDBNode(catalog.SitePhoto, db)
	node.SetLogf(quiet)
	node.SetFlightConfig(flightrec.Config{}) // no sampled exemplars: publishing one allocates
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: &pinned{}, Granularity: federation.Tables, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(med, federation.Tables, map[string]string{catalog.SitePhoto: addr})
	p.SetLogf(quiet)
	defer p.Close()

	const sql = "select ra, dec from photoobj where ra between 0 and 350"
	var ( // the connection's, as serveConn keeps them
		cs  connScratch
		res ResultMsg
	)
	relay := func() {
		if err := p.handleQuery(&cs, sql, 0, nil, &res); err != nil {
			t.Fatal(err)
		}
		if res.Decisions[0].Decision != "bypass" || len(res.TransportErrors) != 0 || len(res.Tuples) == 0 {
			t.Fatalf("not a relayed bypass: %+v", res)
		}
		cs.release()
	}
	for i := 0; i < 10; i++ {
		relay()
	}
	mediate := testing.AllocsPerRun(200, func() {
		if _, err := p.med.QueryScratch(&cs.stmt, sql, ""); err != nil {
			t.Fatal(err)
		}
		cs.release()
	})
	relayed := testing.AllocsPerRun(200, relay) - mediate
	parent := testing.AllocsPerRun(200, func() {
		rep, err := p.med.QueryScratch(&cs.stmt, sql, "")
		if err != nil {
			t.Fatal(err)
		}
		rep.Degraded = true // the sub-query path
		p.runLegs(appendBypassLegs(nil, rep, nil), 0, &res, nil)
		cs.release()
	}) - mediate
	t.Logf("mediation %.0f allocs; a relayed bypass adds %.0f, the sub-query it replaces %.0f", mediate, relayed, parent)
	if relayed > parent {
		t.Errorf("a relayed bypass allocates %.0f times beyond mediation, the sub-query it replaces %.0f", relayed, parent)
	}
}
