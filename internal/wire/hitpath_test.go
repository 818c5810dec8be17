package wire

import (
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/workload"
)

// poison is what a scrambled statement leaves in a released tuple
// (engine.Result.Scramble): a NaN no arithmetic and no synthesized column
// produces.
var poison = math.Float64frombits(0x7ff8dead_deaddead)

// scrambleThenRelease overwrites everything a connection's session holds
// of the statement it has just answered — at a proxy the parsed
// statement, the binding, the accesses, the report with its decisions, the
// column names and the tuples, its node's relayed reply too; at a node the
// parse, the binding and the tuples — before the tuples' memory goes
// back, so that whatever still reads any of it once the connection has
// moved on — a frame not yet written, a flight-recorder capture, a ledger
// or journal record, a reply another connection is building out of the
// same tuple memory — sends, records or trips over garbage instead of
// plausible values.
func scrambleThenRelease(s session) {
	switch s := s.(type) {
	case *connScratch:
		s.stmt.Scramble()
		scrambleReply(&s.reply)
	case *statement:
		s.parser.Scramble()
		s.bound.Scramble()
		s.result.Scramble()
	default:
		panic(fmt.Sprintf("no scramble for a %T session", s))
	}
	s.release()
}

// scrambleReply is Scratch.Scramble for a relayed reply: every byte kept
// of its tuples and columns is 0xff, so that a frame written from them
// after this point does not decode (its tuple count overflows), and its
// size is negative.
func scrambleReply(r *relayed) {
	kept := r.fwd.b[:cap(r.fwd.b)]
	for i := range kept {
		kept[i] = 0xff
	}
	r.rows, r.bytes = math.MinInt64, math.MinInt64
	r.fwd.ragged = !r.fwd.ragged
}

// TestMain runs every test of the package — the round trips through
// proxies and nodes above all, the ledger, exemplar, chaos and breaker
// tests among them — with every answered statement scrambled. The hook
// is set once, before any daemon starts.
func TestMain(m *testing.M) {
	releaseSession = scrambleThenRelease
	os.Exit(m.Run())
}

func openEDR(tb testing.TB, sampleEvery int64) *engine.DB {
	tb.Helper()
	db, err := engine.Open(catalog.EDR(), engine.Config{SampleEvery: sampleEvery, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// hitPathStatements is the length of the federation benchmark's traced
// pass, which the byte gate and BenchmarkProxyHitEDR replay.
const hitPathStatements = 3000

// hitPathFederation is the federation benchmark's edr-cached
// configuration: edrFederation with the cache at 40% of the release,
// where some 96% of the bytes are hits. It returns the client, the proxy
// it dialed, the first hitPathStatements of the EDR stream, and what to
// call when done.
func hitPathFederation(tb testing.TB) (*Client, *Proxy, []string, func()) {
	f := edrFederation(tb, 0.4, nil, nil)
	return f.client, f.proxy, f.sqls, f.close
}

// edrFed is a federation on loopback and the statements to drive it with.
type edrFed struct {
	client *Client
	proxy  *Proxy
	db     *engine.DB         // the proxy's engine
	nodes  map[string]*DBNode // by site
	sqls   []string           // the first hitPathStatements of the EDR stream
}

// edrFederation is the federation benchmark's configuration (bench/fed.go)
// on loopback: EDR at one row in 1 000, a node per site, a rate-profile
// cache of cacheFrac of the release at column granularity, ledger 4096
// and both flight recorders on — and one Client. The nodes serve
// nodeDB, or the proxy's own engine when it is nil; setup, when not nil,
// adjusts the proxy before it listens.
func edrFederation(tb testing.TB, cacheFrac float64, nodeDB *engine.DB, setup func(*Proxy, map[string]*DBNode)) *edrFed {
	tb.Helper()
	db := openEDR(tb, 1000)
	if nodeDB == nil {
		nodeDB = db
	}
	s := db.Schema()
	quiet := func(string, ...any) {}
	f := &edrFed{db: db, nodes: map[string]*DBNode{}}
	addrs := map[string]string{}
	for _, site := range catalog.Sites(s) {
		n := NewDBNode(site, nodeDB)
		n.SetLogf(quiet)
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		f.nodes[site] = n
		addrs[site] = addr
	}
	reg := obs.NewRegistry()
	db.SetObs(reg)
	policy, err := core.NewPolicyByName("rate-profile", int64(cacheFrac*float64(s.TotalBytes())), 1)
	if err != nil {
		tb.Fatal(err)
	}
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: policy, Granularity: federation.Columns,
		Obs: reg, Ledger: ledger.New(4096),
	})
	if err != nil {
		tb.Fatal(err)
	}
	f.proxy = NewProxy(med, federation.Columns, addrs)
	f.proxy.SetLogf(quiet)
	if setup != nil {
		setup(f.proxy, f.nodes)
	}
	paddr, err := f.proxy.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	if f.client, err = Dial(paddr); err != nil {
		tb.Fatal(err)
	}
	st, err := workload.NewStream(workload.EDRProfile())
	if err != nil {
		tb.Fatal(err)
	}
	f.sqls = make([]string, hitPathStatements)
	for i := range f.sqls {
		f.sqls[i] = st.Next().SQL
	}
	return f
}

func (f *edrFed) close() {
	f.client.Close()
	f.proxy.Close()
	for _, n := range f.nodes {
		n.Close()
	}
}

// TestHitPathBytes is the byte gate beside the count gates: what one
// statement costs the whole path — client, proxy, mediator, and a node
// for the few that bypass — in bytes allocated, which is what sets how
// often the collector runs. Before a reply's memory was reused a 64 x 24
// result was allocated three times per hit (the executor's tuples and
// selection vector, the client's decode): 37.6 KB per statement here.
// Reused — the executor's tuples go back when the frame is written, the
// client decodes into its own storage — it left what every layer built
// for the statement and threw away: 7.3 KB in 22 pieces (the parse, the
// binding, shares and accesses, the report, the result header, the
// client's copy of the reply's strings). Now a connection mediates in one
// federation.Scratch and the client interns the names, and what is left
// is the statement's text, copied out of the frame (one string), the name
// of an aggregate's output column, and the sub-queries of the few
// statements that bypass. One pass warms the cache, the pools, the
// scratch and the names.
func TestHitPathBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is deliberately leaky under the race detector")
	}
	client, _, sqls, done := hitPathFederation(t)
	defer done()
	pass := func() {
		for _, sql := range sqls {
			if _, err := client.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	n := float64(len(sqls))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.0f bytes and %.1f allocations per statement, %d collections in the pass",
		bytes, allocs, after.NumGC-before.NumGC)
	if bytes > hitPathByteBound {
		t.Errorf("a statement costs %.0f bytes end to end, want <= %d", bytes, hitPathByteBound)
	}
	if allocs > hitPathAllocBound {
		t.Errorf("a statement costs %.1f allocations end to end, want <= %d", allocs, hitPathAllocBound)
	}
}

// hitPathByteBound is about 25% above what TestHitPathBytes reads (189),
// and hitPathAllocBound the next whole number but one above its count
// (2.3).
const (
	hitPathByteBound  = 240
	hitPathAllocBound = 4
)

// countedConn counts the Reads on a connection that returned bytes — on
// return, so a Read that is waiting belongs to the frame it will carry.
type countedConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestHitPathReadsPerFrame is the count gate beside the byte gate. A
// frame is written with one Write (TestWriteFrameAllocs' harness counts
// them), and once a connection's buffer has grown to its widest frame it
// is read with one Read, at the client and at the proxy: over a net.Pipe,
// where a Read is handed the peer's Write, or as much of it as it has
// room for, Reads per frame are exactly 1. Header-then-body was exactly 2.
func TestHitPathReadsPerFrame(t *testing.T) {
	_, proxy, sqls, done := hitPathFederation(t)
	defer done()
	a, b := net.Pipe()
	near, far := &countedConn{Conn: a}, &countedConn{Conn: b}
	served := make(chan struct{})
	go func() {
		defer close(served)
		proxy.serveConn(far)
	}()
	client := NewClient(near)
	pass := func() {
		for _, sql := range sqls {
			if _, err := client.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	pass() // the buffers grow
	near.reads.Store(0)
	far.reads.Store(0)
	pass()
	client.Close()
	<-served
	for name, c := range map[string]*countedConn{"client": near, "proxy": far} {
		reads, frames := c.reads.Load(), int64(len(sqls))
		t.Logf("%s: %d Reads for %d frames", name, reads, frames)
		if reads != frames {
			t.Errorf("%s: %d Reads for %d frames, want one Read per frame", name, reads, frames)
		}
	}
}

// BenchmarkProxyHitEDR is TestHitPathBytes's harness as a benchmark:
// one op is one statement, sent by one Client and answered by the
// proxy, after a pass that warms the cache. Its B/op is the bytes a hit
// costs the whole path, and its reads/op the Reads the client's end of
// the loopback socket took per reply (1 when every frame arrived whole).
// Answered statements are not scrambled here: the daemons' own release is
// what is timed.
func BenchmarkProxyHitEDR(b *testing.B) { benchProxyEDR(b, 0.4) }

// BenchmarkProxyBypassEDR is BenchmarkProxyHitEDR on the federation
// benchmark's edr-bypass configuration, the cache at 0.1% of the
// release: nine statements in ten are yield-blind, shipped to their node
// before the decision and answered by it, and the rest are executed at
// the proxy, decided, then relayed or split into sub-queries. Its B/op
// and allocs/op are what a bypass costs the whole path, nodes included.
func BenchmarkProxyBypassEDR(b *testing.B) { benchProxyEDR(b, 0.001) }

// benchProxyEDR times the EDR statements through a federation whose
// cache is cacheFrac of the release, after a warming pass.
func benchProxyEDR(b *testing.B, cacheFrac float64) {
	defer func(release func(session)) { releaseSession = release }(releaseSession)
	releaseSession = session.release
	f := edrFederation(b, cacheFrac, nil, nil)
	defer f.close()
	client, sqls := f.client, f.sqls
	for _, sql := range sqls {
		if _, err := client.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
	conn := &countedConn{Conn: client.conn}
	client.conn = conn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query(sqls[i%len(sqls)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(conn.reads.Load())/float64(b.N), "reads/op")
}

// TestResultIsValidUntilTheNextCall pins the contract Query states. The
// *ResultMsg is the Client's: the next Query decodes the next reply into
// the same message and the same memory, so the first result then reads
// as the second; a copy taken before the second call is what keeps. And
// what the client is handed is what a fresh Decode of the same reply
// gives, query after query, however the shapes alternate.
func TestResultIsValidUntilTheNextCall(t *testing.T) {
	cap := catalog.EDR().TotalBytes() / 2
	client, shutdown := testFederation(t,
		core.NewRateProfile(core.RateProfileConfig{Capacity: cap}), federation.Columns)
	defer shutdown()
	// A second connection, whose replies are decoded the allocating way.
	other, err := Dial(client.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	fresh := func(sql string) *ResultMsg {
		t.Helper()
		if _, err := WriteFrame(other.conn, MsgQuery, QueryMsg{SQL: sql}); err != nil {
			t.Fatal(err)
		}
		typ, body, _, err := ReadFrame(other.conn)
		if err != nil || typ != MsgResult {
			t.Fatalf("ReadFrame = %v, %v", typ, err)
		}
		var m ResultMsg
		if err := Decode(body, &m); err != nil {
			t.Fatal(err)
		}
		return &m
	}
	// The decisions differ between the two connections' queries (the
	// first touch bypasses, later ones may load or hit); everything else
	// must be equal.
	sameAnswer := func(got, want *ResultMsg) error {
		if !reflect.DeepEqual(got.Columns, want.Columns) || got.Rows != want.Rows || got.Bytes != want.Bytes {
			return fmt.Errorf("columns, rows, bytes = %v, %d, %d, want %v, %d, %d",
				got.Columns, got.Rows, got.Bytes, want.Columns, want.Rows, want.Bytes)
		}
		if len(got.Decisions) != len(want.Decisions) {
			return fmt.Errorf("%d decisions, want %d", len(got.Decisions), len(want.Decisions))
		}
		if len(got.Tuples) != len(want.Tuples) || (got.Tuples == nil) != (want.Tuples == nil) {
			return fmt.Errorf("%d tuples (nil: %t), want %d (nil: %t)",
				len(got.Tuples), got.Tuples == nil, len(want.Tuples), want.Tuples == nil)
		}
		for r := range want.Tuples {
			if !reflect.DeepEqual(got.Tuples[r], want.Tuples[r]) {
				return fmt.Errorf("tuple %d = %v, want %v", r, got.Tuples[r], want.Tuples[r])
			}
		}
		return nil
	}

	const wide = "select * from photoobj where ra between 100 and 140"
	const narrow = "select z from specobj where z < 3"
	first, err := client.Query(wide)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAnswer(first, fresh(wide)); err != nil {
		t.Fatalf("%s: %v", wide, err)
	}
	kept := ResultMsg{Columns: append([]string(nil), first.Columns...), Rows: first.Rows, Bytes: first.Bytes}
	for _, tuple := range first.Tuples {
		kept.Tuples = append(kept.Tuples, append([]float64(nil), tuple...))
	}
	kept.Decisions = append(kept.Decisions, first.Decisions...)

	second, err := client.Query(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("the second result is another message: the Client allocated one per reply")
	}
	if err := sameAnswer(second, fresh(narrow)); err != nil {
		t.Fatalf("%s: %v", narrow, err)
	}
	if len(first.Columns) != 1 || len(kept.Columns) == 1 {
		t.Fatalf("the first result survived the second call: it has %d columns, its copy %d", len(first.Columns), len(kept.Columns))
	}
	if err := sameAnswer(&kept, fresh(wide)); err != nil {
		t.Fatalf("a copy taken before the second call: %v", err)
	}

	// Wide, narrow, empty, aggregate, an error in between: every reply is
	// what a fresh decode gives, none carries a previous one's leftovers.
	for i, sql := range []string{wide, narrow, "select ra from photoobj where ra < -1", wide,
		"select count(*), avg(z) from specobj", "select ghost from photoobj", narrow, wide} {
		got, err := client.Query(sql)
		if sql == "select ghost from photoobj" {
			if err == nil {
				t.Fatalf("query %d: %s succeeded", i, sql)
			}
			continue
		}
		if err != nil {
			t.Fatalf("query %d: %s: %v", i, sql, err)
		}
		if err := sameAnswer(got, fresh(sql)); err != nil {
			t.Fatalf("query %d: %s: %v", i, sql, err)
		}
		for r, tuple := range got.Tuples {
			for c, v := range tuple {
				if math.Float64bits(v) == math.Float64bits(poison) {
					t.Fatalf("query %d: %s: tuple %d value %d is memory the proxy had released", i, sql, r, c)
				}
			}
		}
	}
}
