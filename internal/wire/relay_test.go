package wire

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/sqlparse"
)

// TestRelayedRepliesMatchTheEngine is the differential test of what a
// node answers: the federation benchmark's edr-bypass configuration on
// loopback (a cache of 0.1%, so nearly every statement bypasses) over the
// first 3 000 EDR statements, every reply held to the statement executed
// directly.
//
// With the nodes' engine built as the proxy's, every reply's rows, bytes,
// columns and tuples are the engine's, and a node executes exactly what
// was shipped to it: dbnode.queries ticks once for a yield-blind
// statement (shipped before its decision) and for a bypassed statement
// whose tables are all its site's (relayed after it), and once per FROM
// table with a bypassed object for one that spans sites.
//
// With the nodes' engine at another sample, a yield-blind statement is
// still answered by its node, and charged the node's bytes: its yield is
// the reply's. A relayed reply is not the result the mediator decided
// on. Where its rows or bytes differ, the client gets the local answer
// and a transport error naming the mismatch; where they cannot (an
// aggregate's one row, a grouping's groups, no match at either sample),
// the check cannot see the other sample and the node's answer is the
// client's. Either way D_A = D_S + D_C, and the client received D_A.
func TestRelayedRepliesMatchTheEngine(t *testing.T) {
	t.Run("same sample", func(t *testing.T) {
		n := relayDifferential(t, openEDR(t, 1000))
		t.Logf("%+v", n)
		if n.shipped == 0 || n.relayed == 0 || n.mismatched != 0 || n.nodeOnly != 0 {
			t.Errorf("%+v: want shipped and relayed statements, all answered by the node's reply, none differing from the engine's", n)
		}
	})
	t.Run("another sample", func(t *testing.T) {
		n := relayDifferential(t, openEDR(t, 500))
		t.Logf("%+v", n)
		if n.shipped == 0 || n.mismatched == 0 || n.nodeOnly == 0 {
			t.Errorf("%+v: want shipped statements, mismatches answered locally, and replies the engine does not have answered by the node", n)
		}
	})
}

// relayCounts tallies a differential run's single-site bypassed
// statements: shipped were yield-blind and answered by their node before
// the decision, relayed were answered with their node's reply after it,
// nodeOnly of both with tuples the proxy's engine does not have, and
// mismatched were answered locally.
type relayCounts struct {
	shipped, relayed, nodeOnly, mismatched int
}

// yieldBlind tells from the outside which statements the mediator ships
// before deciding: those whose tables are all one site's and every one of
// whose objects, as Decompose names them, is larger than the cache.
func yieldBlind(med *federation.Mediator, b *engine.Bound) (string, bool) {
	site, single := federation.OneSite(b)
	accs := federation.Decompose(b, med.Schema().Name, 1, med.Granularity())
	if !single || len(accs) == 0 {
		return "", false
	}
	for _, a := range accs {
		if med.Objects()[a.Object].Size <= med.Policy().Capacity() {
			return "", false
		}
	}
	return site, true
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
		var charged int64
		for _, d := range got.Decisions {
			if d.Decision == "bypass" {
				table, _, _ := strings.Cut(strings.TrimPrefix(d.Object, s.Name+"/"), ".")
				bypassed[table] = true
			}
			charged += d.Yield
		}
		site, single := federation.OneSite(b)
		_, blind := yieldBlind(f.proxy.med, b)
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
		switch {
		case blind:
			if len(bypassed) == 0 {
				t.Fatalf("%d: %s: a yield-blind statement was not bypassed: %+v", i, sql, got.Decisions)
			}
			want = remote
			counts.shipped++
			if sameAsEngine(got, local) != nil {
				counts.nodeOnly++
			}
		case single && len(bypassed) > 0:
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
		if charged != got.Bytes {
			t.Fatalf("%d: %s: decisions charge %d bytes, the answer has %d", i, sql, charged, got.Bytes)
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
	st, err := f.client.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if a := st.Acct; a.DeliveredBytes() != a.YieldBytes || delivered != a.YieldBytes {
		t.Fatalf("D_S + D_C = %d, D_A = %d, Σ reply bytes = %d", a.DeliveredBytes(), a.YieldBytes, delivered)
	}
	return counts
}

// The first 3 000 EDR statements at the edr-bypass cache: the 306 the
// proxy executes, because their yield can change a decision, and the
// statements and sub-queries the nodes execute, as many as when the
// proxy executed all 3 000.
const (
	edrBypassExecuted  = 306
	edrBypassNodeCalls = 3123
)

// TestShippingDecidesAsTheMediator is the differential and count test of
// shipping before the decision. The edr-bypass federation, its nodes on
// an engine of their own, answers the first 3 000 EDR statements from one
// client; a bare mediator — the proxy's configuration over another
// engine, no nodes, every statement executed — mediates the same
// statements in the same order in one Scratch. The two make the same
// decisions statement for statement, write the same ledger records (T,
// object, action, yield) and end with the same accounting, the proxy
// executed only the statements whose yield can change a decision, and
// each load it was charged is one fetch a node served.
func TestShippingDecidesAsTheMediator(t *testing.T) {
	nodeDB := openEDR(t, 1000)
	f := edrFederation(t, 0.001, nodeDB, nil)
	defer f.close()
	bareDB := openEDR(t, 1000)
	bareReg := obs.NewRegistry()
	bareDB.SetObs(bareReg)
	s := bareDB.Schema()
	policy, err := core.NewPolicyByName("rate-profile", int64(0.001*float64(s.TotalBytes())), 1)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := federation.New(federation.Config{
		Schema: s, Engine: bareDB, Policy: policy, Granularity: federation.Columns,
		Obs: bareReg, Ledger: ledger.New(4096), Shadows: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodeCalls := func() (n int64) {
		for _, node := range f.nodes {
			n += node.queries.Value()
		}
		return n
	}
	// The records written since the last call, as the ring still holds
	// them: a hundred statements write fewer than it keeps.
	type record struct {
		T      int64
		Object string
		Action string
		Yield  int64
	}
	since := func(m *federation.Mediator, seq *uint64) []record {
		var out []record
		for _, r := range m.Read(ledger.Query{}).Records {
			if r.Seq > *seq {
				out = append(out, record{r.T, r.Object, r.Action, r.Yield})
				*seq = r.Seq
			}
		}
		return out
	}
	var (
		sc                federation.Scratch
		proxySeq, bareSeq uint64
		blind             int
	)
	for i, sql := range f.sqls {
		got, err := f.client.Query(sql)
		if err != nil {
			t.Fatalf("%d: %s: %v", i, sql, err)
		}
		want, err := bare.QueryScratch(&sc, sql, "", nil)
		if err != nil {
			t.Fatalf("%d: %s: %v", i, sql, err)
		}
		if _, ok := yieldBlind(bare, want.Bound); ok {
			blind++
		}
		if got.Rows != want.Result.Rows || got.Bytes != want.Result.Bytes || got.Partial || len(got.Decisions) != len(want.Decisions) {
			t.Fatalf("%d: %s: %d rows, %d bytes, partial %t, %d decisions; the mediator's %d, %d, false, %d",
				i, sql, got.Rows, got.Bytes, got.Partial, len(got.Decisions), want.Result.Rows, want.Result.Bytes, len(want.Decisions))
		}
		for k, d := range want.Decisions {
			if g := got.Decisions[k]; g.Object != string(d.Object) || g.Yield != d.Yield || g.Decision != d.Decision.String() {
				t.Fatalf("%d: %s: decision %d is %s %d %s, the mediator's %s %d %s",
					i, sql, k, g.Object, g.Yield, g.Decision, d.Object, d.Yield, d.Decision)
			}
		}
		sc.Release()
		if i%100 == 99 || i == len(f.sqls)-1 {
			if got, want := since(f.proxy.med, &proxySeq), since(bare, &bareSeq); !reflect.DeepEqual(got, want) {
				t.Fatalf("after statement %d the ledgers differ: %d records, the mediator's %d", i, len(got), len(want))
			}
		}
	}
	if got, want := f.proxy.med.Accounting(), bare.Accounting(); got != want {
		t.Errorf("accounting %+v, the mediator's %+v", got, want)
	}
	executed := f.proxy.Obs().Counter("engine.queries").Value()
	t.Logf("%d of %d statements yield-blind; the proxy executed %d, the mediator %d, the nodes %d",
		blind, len(f.sqls), executed, bareReg.Counter("engine.queries").Value(), nodeCalls())
	if executed != int64(len(f.sqls)-blind) || executed != edrBypassExecuted {
		t.Errorf("the proxy executed %d statements, want the %d that are not yield-blind (%d)", executed, len(f.sqls)-blind, edrBypassExecuted)
	}
	if n := nodeCalls(); n != edrBypassNodeCalls {
		t.Errorf("the nodes executed %d statements and sub-queries, want %d", n, edrBypassNodeCalls)
	}
	if got, loads := fetches(f.nodes), f.proxy.med.Accounting().Loads; got != loads || loads == 0 {
		t.Errorf("the nodes served %d fetches, want one per load (%d)", got, loads)
	}
}

// stubNode is a photo-site node that answers every statement it is sent
// with answer, which reports whether to keep the connection open, and
// counts the statements; it answers a ping as a node does.
type stubNode struct {
	addr    string
	queries atomic.Int64
}

func newStubNode(t *testing.T, answer func(net.Conn) bool) *stubNode {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &stubNode{addr: ln.Addr().String()}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				for {
					typ, _, _, err := ReadFrame(conn)
					switch {
					case err != nil:
						return
					case typ == MsgPing:
						if _, err := WriteFrame(conn, MsgPong, PongMsg{Site: catalog.SitePhoto}); err != nil {
							return
						}
					case typ == MsgQuery:
						n.queries.Add(1)
						if !answer(conn) {
							return
						}
					}
				}
			}()
		}
	}()
	return n
}

// blindSQL is yield-blind at the edr-bypass cache: photoobj's ra and dec
// columns are each larger than 0.1% of the release.
const blindSQL = "select ra, dec from photoobj where ra between 0 and 350"

// shipProxy is a proxy at the edr-bypass cache over an engine of its own
// with one node, for the photo site, at addr; what a bare mediator —
// size, then decide — reports for blindSQL in the same configuration; and
// what the bare mediator's engine executes for the statement.
func shipProxy(t *testing.T, addr string) (*Proxy, *federation.QueryReport, *engine.Result) {
	t.Helper()
	newMediator := func() (*federation.Mediator, *engine.DB) {
		db := openEDR(t, 1000)
		s := db.Schema()
		policy, err := core.NewPolicyByName("rate-profile", int64(0.001*float64(s.TotalBytes())), 1)
		if err != nil {
			t.Fatal(err)
		}
		med, err := federation.New(federation.Config{
			Schema: s, Engine: db, Policy: policy, Granularity: federation.Columns,
			Obs: obs.NewRegistry(), Ledger: ledger.New(64),
		})
		if err != nil {
			t.Fatal(err)
		}
		return med, db
	}
	med, _ := newMediator()
	p := NewProxy(med, federation.Columns, map[string]string{catalog.SitePhoto: addr})
	p.SetLogf(func(string, ...any) {})
	bare, db := newMediator()
	want, err := bare.Query(blindSQL)
	if err != nil {
		t.Fatal(err)
	}
	b, rows := execute(t, db, blindSQL)
	if _, ok := yieldBlind(med, b); !ok {
		t.Fatalf("%s is not yield-blind at the edr-bypass cache", blindSQL)
	}
	return p, want, rows
}

// turnsDown is a SiteHealth that finds every site available the first
// time it is asked and none afterwards.
type turnsDown struct{ asked atomic.Int64 }

func (h *turnsDown) SiteAvailable(site string) (bool, string) {
	if h.asked.Add(1) == 1 {
		return true, ""
	}
	return false, "breaker open site=" + site
}

// TestShippedStatementIsNotAskedAgain: a site that has just answered a
// yield-blind statement is not asked for its health again at the
// decision, so a health source that turns unavailable in between leaves
// the answered statement whole — no failed leg, not partial — and Σ
// ledger yields = D_A. Sent again, the statement finds the site down
// before shipping and is decided degraded, as any other.
func TestShippedStatementIsNotAskedAgain(t *testing.T) {
	db := openEDR(t, 1000)
	node := NewDBNode(catalog.SitePhoto, db)
	node.SetLogf(func(string, ...any) {})
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	p, _, want := shipProxy(t, addr)
	defer p.Close()
	health := &turnsDown{}
	p.med.SetHealth(health)
	var (
		cs  connScratch
		res ResultMsg
	)
	identity := func() {
		t.Helper()
		var sum int64
		r := p.med.Read(ledger.Query{})
		for _, rec := range r.Records {
			sum += rec.Yield
		}
		if a := r.Acct; sum != a.YieldBytes || a.YieldBytes != a.DeliveredBytes() {
			t.Errorf("Σ ledger yields %d, D_A %d, D_S + D_C %d", sum, a.YieldBytes, a.DeliveredBytes())
		}
	}
	if err := p.handleQuery(&cs, blindSQL, 0, nil, &res); err != nil {
		t.Fatal(err)
	}
	if n := health.asked.Load(); n != 1 {
		t.Errorf("the health source was asked %d times, want once, before the ship", n)
	}
	if res.Partial || len(res.SiteErrors) != 0 || len(res.TransportErrors) != 0 {
		t.Errorf("partial %t, site errors %+v, transport errors %+v: want the node's whole answer", res.Partial, res.SiteErrors, res.TransportErrors)
	}
	for _, d := range res.Decisions {
		if d.Failed || d.Decision != "bypass" {
			t.Errorf("decision %+v, want a bypass", d)
		}
	}
	if err := sameAsEngine(&res, want); err != nil {
		t.Errorf("not the node's answer: %v", err)
	}
	identity()
	cs.release()

	if err := p.handleQuery(&cs, blindSQL, 0, nil, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Bytes != 0 || len(res.SiteErrors) != 1 {
		t.Errorf("sent again: partial %t, %d bytes, site errors %+v: want every leg failed", res.Partial, res.Bytes, res.SiteErrors)
	}
	identity()
}

// TestShippedBypassAllocs is TestRelayedBypassAllocs for a yield-blind
// statement: beyond parsing and binding it, a statement shipped before
// its decision — the ship, decoding the node's reply into the
// connection's store, weighing, splitting and deciding with the reply's
// bytes — may allocate no more than relaying a bypass added to mediating
// it when every statement was executed here first (6).
func TestShippedBypassAllocs(t *testing.T) {
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
	policy, err := core.NewPolicyByName("rate-profile", int64(0.001*float64(s.TotalBytes())), 1)
	if err != nil {
		t.Fatal(err)
	}
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: policy, Granularity: federation.Columns, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(med, federation.Columns, map[string]string{catalog.SitePhoto: addr})
	p.SetLogf(quiet)
	defer p.Close()

	// The engine counts into the node's registry, which attached last: a
	// shipped statement is executed once, by the node.
	executed := node.Obs().Counter("engine.queries")
	var ( // the connection's, as serveConn keeps them
		cs  connScratch
		res ResultMsg
	)
	ship := func() {
		if err := p.handleQuery(&cs, blindSQL, 0, nil, &res); err != nil {
			t.Fatal(err)
		}
		cs.release()
	}
	for i := 0; i < 10; i++ {
		before := executed.Value()
		ship()
		if n := executed.Value() - before; n != 1 || len(res.TransportErrors) != 0 || len(res.Tuples) == 0 {
			t.Fatalf("not a shipped bypass: executed %d times, %+v", n, res)
		}
	}
	var (
		parser sqlparse.Parser
		bound  engine.Bound
	)
	parseBind := testing.AllocsPerRun(200, func() {
		stmt, err := parser.Parse(blindSQL)
		if err == nil {
			err = bound.Rebind(s, stmt)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	shipped := testing.AllocsPerRun(200, ship) - parseBind
	t.Logf("parse and bind %.0f allocs; a shipped bypass adds %.0f", parseBind, shipped)
	if shipped > parentRelayAllocs {
		t.Errorf("a shipped bypass allocates %.0f times beyond parse and bind, want <= %d", shipped, parentRelayAllocs)
	}
}

// parentRelayAllocs is what TestRelayedBypassAllocs read for a relayed
// bypass beyond its mediation when every statement was executed at the
// proxy before its decision.
const parentRelayAllocs = 6

// TestFailedShipIsAnsweredLocally: a yield-blind statement whose node
// errs, hangs up or answers with a negative size goes the parent's way —
// executed at the proxy, decided with that yield, answered with the local
// result — with the failure as its one transport error, and it is not
// relayed again after the decision: its node is sent it once, or twice
// when the connection failed and the ship was retried on a fresh dial.
func TestFailedShipIsAnsweredLocally(t *testing.T) {
	for _, c := range []struct {
		name   string
		answer func(net.Conn) bool
		cause  string // what the transport error names
		sends  int64  // how often the node is sent the statement
	}{
		{"node error", func(conn net.Conn) bool {
			_, err := WriteFrame(conn, MsgError, ErrorMsg{Message: "stub refuses"})
			return err == nil
		}, "stub refuses", 1},
		{"connection closed", func(net.Conn) bool { return false }, "EOF", 2},
		{"negative bytes", func(conn net.Conn) bool {
			_, err := WriteFrame(conn, MsgResult, &ResultMsg{Rows: 3, Bytes: -24})
			return err == nil
		}, "refused", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			node := newStubNode(t, c.answer)
			p, want, rows := shipProxy(t, node.addr)
			defer p.Close()
			var (
				cs  connScratch
				res ResultMsg
			)
			if err := p.handleQuery(&cs, blindSQL, 0, nil, &res); err != nil {
				t.Fatal(err)
			}
			if n := node.queries.Load(); n != c.sends {
				t.Errorf("the node was sent the statement %d times, want %d", n, c.sends)
			}
			if len(res.TransportErrors) != 1 || res.TransportErrors[0].Site != catalog.SitePhoto ||
				!strings.Contains(res.TransportErrors[0].Error, c.cause) {
				t.Errorf("transport errors %+v, want one at %s naming %q", res.TransportErrors, catalog.SitePhoto, c.cause)
			}
			if err := sameAsEngine(&res, rows); err != nil {
				t.Errorf("not the local answer: %v", err)
			}
			if res.Partial || len(res.Decisions) != len(want.Decisions) {
				t.Fatalf("partial %t with %d decisions, want %d, not partial", res.Partial, len(res.Decisions), len(want.Decisions))
			}
			for k, d := range want.Decisions {
				if g := res.Decisions[k]; g.Object != string(d.Object) || g.Yield != d.Yield || g.Decision != d.Decision.String() {
					t.Errorf("decision %d is %s %d %s, the parent's %s %d %s", k, g.Object, g.Yield, g.Decision, d.Object, d.Yield, d.Decision)
				}
			}
		})
	}
}

// bind parses sql and binds it against s.
func bind(t *testing.T, s *catalog.Schema, sql string) *engine.Bound {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Bind(s, stmt)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// execute binds sql against db's schema and executes it there.
func execute(t *testing.T, db *engine.DB, sql string) (*engine.Bound, *engine.Result) {
	t.Helper()
	b := bind(t, db.Schema(), sql)
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
		if _, err := p.med.QueryScratch(&cs.stmt, sql, "", nil); err != nil {
			t.Fatal(err)
		}
		cs.release()
	})
	relayed := testing.AllocsPerRun(200, relay) - mediate
	parent := testing.AllocsPerRun(200, func() {
		rep, err := p.med.QueryScratch(&cs.stmt, sql, "", nil)
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
