package wire

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/sqlparse"
)

// newSimProxy builds a proxy with no database nodes (pure simulation
// mode): decisions and accounting still work, node RPCs are skipped.
func newSimProxy(t *testing.T, nodeAddrs map[string]string) (*Proxy, *Client, func()) {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 100000})
	if err != nil {
		t.Fatal(err)
	}
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db,
		Policy:      core.NewRateProfile(core.RateProfileConfig{Capacity: s.TotalBytes()}),
		Granularity: federation.Tables,
		Obs:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(med, federation.Tables, nodeAddrs)
	p.SetLogf(func(string, ...any) {})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return p, c, func() { c.Close(); p.Close() }
}

// TestSubqueryLegsUseTheReportsBound: what a bypass ships follows the
// report's Bound — the statement as the mediator bound and executed it.
// A photoobj ⋈ neighbors join is one site's: one leg to that site,
// carrying the client's statement (the report's SQL), whose reply is to
// answer the client. A photoobj ⋈ specobj join spans two sites: one
// sub-query per table with a bypassed object, built from the Bound and
// from nothing else — handed a report whose SQL says one thing and whose
// Bound another, the legs follow the Bound. A degraded statement ships
// sub-queries even when it is one site's.
func TestSubqueryLegsUseTheReportsBound(t *testing.T) {
	s := catalog.EDR()
	bind := func(sql string) *engine.Bound {
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
	bypassed := func(tables ...string) []federation.AccessDecision {
		var ds []federation.AccessDecision
		for _, name := range tables {
			ds = append(ds, federation.AccessDecision{Table: s.TableIndex(name), Decision: core.Bypass})
		}
		return ds
	}
	var reply relayed

	const local = "select p.ra, n.distance from photoobj p, neighbors n where p.objid = n.objid and p.ra < 10"
	rep := &federation.QueryReport{SQL: local, Bound: bind(local), Decisions: bypassed("photoobj", "neighbors")}
	legs := appendBypassLegs(nil, rep, &reply)
	if want := []leg{{site: catalog.SitePhoto, sql: local, reply: &reply}}; !reflect.DeepEqual(legs, want) {
		t.Fatalf("one site's join: legs = %+v, want %+v", legs, want)
	}
	rep.Degraded = true
	rep.Decisions = bypassed("neighbors")
	legs = appendBypassLegs(nil, rep, &reply)
	if want := []leg{{site: catalog.SitePhoto, sql: federation.Subqueries(rep.Bound)[1].String()}}; !reflect.DeepEqual(legs, want) {
		t.Fatalf("degraded: legs = %+v, want %+v", legs, want)
	}

	b := bind("select p.ra, s.z from photoobj p, specobj s where p.objid = s.objid and s.z < 1")
	rep = &federation.QueryReport{SQL: "select run from field", Bound: b, Decisions: bypassed("photoobj", "specobj", "field")}
	legs = appendBypassLegs(nil, rep, &reply)
	subs := federation.Subqueries(b)
	want := []leg{
		{site: catalog.SitePhoto, sql: subs[0].String()},
		{site: catalog.SiteSpec, sql: subs[1].String()},
	}
	if !reflect.DeepEqual(legs, want) {
		t.Fatalf("two sites' join: legs = %+v, want %+v", legs, want)
	}
	rep.Decisions = bypassed("specobj")
	if legs := appendBypassLegs(nil, rep, &reply); len(legs) != 1 || legs[0] != want[1] {
		t.Fatalf("legs for specobj alone = %+v", legs)
	}
}

func TestProxySimulationMode(t *testing.T) {
	_, c, done := newSimProxy(t, nil)
	defer done()
	res, err := c.Query("select ra from photoobj where ra < 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows <= 0 {
		t.Fatal("no rows")
	}
	st, err := c.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if st.TransportTx != 0 || st.TransportRx != 0 {
		t.Fatal("simulation mode should not touch node transport")
	}
}

func TestProxySurvivesDeadNode(t *testing.T) {
	// A configured but unreachable node must not fail queries: the
	// mediation and accounting complete; only the RPC is lost (and
	// logged).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // nothing listens here anymore
	_, c, done := newSimProxy(t, map[string]string{catalog.SitePhoto: dead})
	defer done()
	res, err := c.Query("select ra from photoobj where ra < 100")
	if err != nil {
		t.Fatalf("query should survive a dead node: %v", err)
	}
	if res.Rows <= 0 {
		t.Fatal("no rows")
	}
}

// retiredTypes are the message numbers of the four scrape requests and
// their replies that MsgScrape replaced: a frame of one still reads, and
// a daemon must answer it with a MsgError and serve on.
var retiredTypes = []MsgType{6, 7, 8, 9, 10, 11, 14, 15}

// rejectsFrame sends one frame of type typ on conn and fails unless the
// reply is a MsgError.
func rejectsFrame(t *testing.T, conn net.Conn, typ MsgType, payload any) {
	t.Helper()
	if _, err := WriteFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	got, body, _, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("type %d: %v", typ, err)
	}
	if got != MsgError {
		t.Fatalf("type %d answered with %s, want error", typ, got)
	}
	var e ErrorMsg
	if err := Decode(body, &e); err != nil {
		t.Fatal(err)
	}
}

func TestProxyRejectsUnknownFrame(t *testing.T) {
	_, c, done := newSimProxy(t, nil)
	defer done()
	// A fetch frame (only nodes accept those), and every retired type.
	rejectsFrame(t, c.conn, MsgFetch, FetchMsg{Object: "edr/photoobj"})
	for _, typ := range retiredTypes {
		if typ.String() != "unknown" {
			t.Fatalf("retired type %d is named %q", typ, typ)
		}
		rejectsFrame(t, c.conn, typ, struct{}{})
	}
	// The connection still works afterwards.
	if _, err := c.Query("select ra from photoobj where ra < 10"); err != nil {
		t.Fatalf("connection broken: %v", err)
	}
}

// TestDBNodeRejectsUnknownFrame is TestProxyRejectsUnknownFrame's twin:
// a node answers every retired type with a MsgError and serves on.
func TestDBNodeRejectsUnknownFrame(t *testing.T) {
	_, addr := listenNode(t, catalog.SitePhoto, catalog.EDR(), engine.Config{Seed: 1, SampleEvery: 100000})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, typ := range retiredTypes {
		rejectsFrame(t, c.conn, typ, struct{}{})
	}
	if _, err := c.Query("select ra from photoobj where ra < 10"); err != nil {
		t.Fatalf("connection broken: %v", err)
	}
	if res, err := c.Scrape(ScrapeMsg{}); err != nil || res.Source != "bydbd:"+catalog.SitePhoto {
		t.Fatalf("scrape after the retired types: %+v, %v", res, err)
	}
}

// TestProxyServesFramesSentTogether: a peer need not wait for a reply
// before it sends again, and a serve loop that reads ahead must not lose
// what arrived past the frame it returned. Two pings and a query in one
// Write come back as two pongs and a result, in that order, and the
// connection then serves as usual.
func TestProxyServesFramesSentTogether(t *testing.T) {
	_, c, done := newSimProxy(t, nil)
	defer done()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second)) // a lost frame would be a hang
	const sql = "select ra from photoobj where ra < 100"
	want, err := c.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	rows := want.Rows
	var burst []byte
	for _, f := range [][]byte{
		encodeFrame(t, MsgPing, PingMsg{}), encodeFrame(t, MsgPing, PingMsg{}), encodeFrame(t, MsgQuery, QueryMsg{SQL: sql}),
	} {
		burst = append(burst, f...)
	}
	if _, err := c.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var pong PongMsg
		if err := c.reply(MsgPong, &pong); err != nil || pong.Site != "byproxyd" {
			t.Fatalf("reply %d = %+v, %v, want the proxy's pong", i, pong, err)
		}
	}
	var res ResultMsg
	if err := c.reply(MsgResult, &res); err != nil || res.Rows != rows {
		t.Fatalf("reply 2 = %d rows, %v, want the %d of the same query alone", res.Rows, err, rows)
	}
	if _, err := c.Ping(); err != nil {
		t.Fatalf("connection after the burst: %v", err)
	}
}

func TestClientConcurrentConnections(t *testing.T) {
	_, c1, done := newSimProxy(t, nil)
	defer done()
	// Second client on the same proxy.
	st, err := c1.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(pickAddr(t, c1))
	if err != nil {
		t.Skip("cannot re-derive address") // defensive; should not happen
	}
	defer c2.Close()
	if _, err := c2.Query("select z from specobj where z < 1"); err != nil {
		t.Fatal(err)
	}
	st2, err := c1.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Acct.Queries != st.Acct.Queries+1 {
		t.Fatalf("queries = %d, want %d", st2.Acct.Queries, st.Acct.Queries+1)
	}
}

func pickAddr(t *testing.T, c *Client) string {
	t.Helper()
	return c.conn.RemoteAddr().String()
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port should fail")
	}
}

func TestStatsCachedObjects(t *testing.T) {
	_, c, done := newSimProxy(t, nil)
	defer done()
	// Repeat a fat query until the table's cumulative yield justifies
	// loading it; then stats must list it.
	for i := 0; i < 40; i++ {
		if _, err := c.Query("select * from photoobj where ra between 0 and 350"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range st.CachedObjects {
		if id == "edr/photoobj" {
			found = true
		}
	}
	if !found {
		t.Fatalf("cached objects = %v, want edr/photoobj", st.CachedObjects)
	}
	if len(st.CachedObjects) > MaxStatsCachedObjects {
		t.Fatalf("stats lists %d cached objects, cap is %d",
			len(st.CachedObjects), MaxStatsCachedObjects)
	}
}

// TestProxyConcurrentClients hammers the proxy from many client
// goroutines while others scrape it. Run under -race this exercises the
// mediation lock, the obs registry's atomics, the ledger's ring read
// while queries write into it, and per-connection serving paths all at
// once.
func TestProxyConcurrentClients(t *testing.T) {
	p, c0, done := newSimProxy(t, nil)
	defer done()
	addr := c0.conn.RemoteAddr().String()

	const (
		clients          = 8
		queriesPerClient = 20
		pollers          = 2
	)
	sqls := []string{
		"select ra from photoobj where ra < 100",
		"select ra, dec from photoobj where ra between 0 and 350",
		"select z from specobj where z < 2",
	}

	var wgClients, wgPollers sync.WaitGroup
	errc := make(chan error, clients+pollers)
	stop := make(chan struct{})

	for i := 0; i < clients; i++ {
		wgClients.Add(1)
		go func(i int) {
			defer wgClients.Done()
			c, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for j := 0; j < queriesPerClient; j++ {
				res, err := c.Query(sqls[(i+j)%len(sqls)])
				if err != nil {
					errc <- err
					return
				}
				if res.Rows < 0 {
					errc <- fmt.Errorf("negative rows: %+v", res)
					return
				}
			}
		}(i)
	}
	for i := 0; i < pollers; i++ {
		wgPollers.Add(1)
		go func() {
			defer wgPollers.Done()
			c, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Scrape(ScrapeMsg{}); err != nil {
					errc <- err
					return
				}
			}
		}()
	}

	wgClients.Wait()
	close(stop)
	wgPollers.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	st, err := c0.Scrape(ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Acct.Queries != clients*queriesPerClient {
		t.Fatalf("queries = %d, want %d", st.Acct.Queries, clients*queriesPerClient)
	}
	snap := p.Obs().Snapshot()
	if got := snap.CounterValue("federation.queries", ""); got != clients*queriesPerClient {
		t.Fatalf("federation.queries = %d, want %d", got, clients*queriesPerClient)
	}
}

// TestLongStatementIsNotKept: a connection's scratch grows with the
// statements it serves and is kept between them, so a statement of half
// a megabyte — fifty thousand conjuncts, some twenty megabytes of parsed
// and bound lists — would be held for as long as its connection lives.
// The proxy starts such a connection over from a zero scratch
// (maxKeptStatement): with the connection still open, the heap is back
// within what the frame buffers keep.
func TestLongStatementIsNotKept(t *testing.T) {
	_, c, done := newSimProxy(t, nil)
	defer done()
	query := func(sql string) {
		t.Helper()
		if _, err := c.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // and what the first one's sync.Pool victims held
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const short = "select ra from photoobj where ra < 1"
	query(short)
	before := heap()
	query(short + strings.Repeat(" and ra < 1", 50000))
	query(short) // the client, too, lets go of the long one
	after := heap()
	t.Logf("heap %d KB before the long statement, %d KB after", before>>10, after>>10)
	if after > before+6<<20 {
		t.Errorf("the heap grew by %d KB across a long statement on a connection that is still open, want < 6 MB", (after-before)>>10)
	}
}
