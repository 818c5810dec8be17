package wire

import (
	"bytes"
	"io"
	"net"
	"testing"

	"bypassyield/internal/obs/flightrec"
)

// TestWriteFrameAllocs pins the frame encoder's allocation budget
// where it is produced: a query (as a value and as a pointer) and a
// 64×24 result with its 24 decisions append into the pooled buffer
// and allocate nothing. Boxing a payload into WriteFrame's `any` is
// the caller's allocation, so the payloads are boxed once out here.
func TestWriteFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is deliberately leaky under the race detector")
	}
	query := QueryMsg{SQL: "select ra, dec from photoobj where ra between 0 and 350", TraceID: "00000000000000ab"}
	for name, c := range map[string]struct {
		typ     MsgType
		payload any
	}{
		"query value":   {MsgQuery, query},
		"query pointer": {MsgQuery, &query},
		"bulk result":   {MsgResult, bulkResult(64, 24, true)},
	} {
		if _, err := WriteFrame(io.Discard, c.typ, c.payload); err != nil {
			t.Fatal(err) // warm the pool outside the measured runs
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := WriteFrame(io.Discard, c.typ, c.payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: WriteFrame allocates %.1f per frame, want 0", name, allocs)
		}
	}
}

// TestUntracedHitBuildsOnlyTheResult pins what the proxy adds to a hit
// on top of parsing and mediating it, by difference: handleQuery refills
// the connection's ResultMsg and allocates nothing — no message, no
// decision list, no formatted numbers. Under a trace id the same query
// pays for the id's sixteen hex digits, which shows the bound measures
// what it claims to.
func TestUntracedHitBuildsOnlyTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	p, _, done := newSimProxy(t, nil)
	defer done()
	const sql = "select ra, dec from photoobj where ra between 0 and 350"
	var ( // the connection's, as serveConn keeps them
		cs  connScratch
		res ResultMsg
	)
	for i := 0; ; i++ {
		if err := p.handleQuery(&cs, sql, 0, nil, &res); err != nil {
			t.Fatal(err)
		}
		if res.Decisions[0].Decision == "hit" {
			break
		}
		if i == 200 { // the yields must first add up to the load's cost
			t.Fatalf("photoobj is not cached after %d queries: %+v", i, res.Decisions)
		}
	}
	mediate := testing.AllocsPerRun(200, func() {
		if _, err := p.med.QueryScratch(&cs.stmt, sql, "", nil); err != nil {
			t.Fatal(err)
		}
	})
	handle := func(traceID uint64) float64 {
		return testing.AllocsPerRun(200, func() {
			if err := p.handleQuery(&cs, sql, traceID, nil, &res); err != nil {
				t.Fatal(err)
			}
		})
	}
	untraced := handle(0) - mediate
	traced := handle(0xab) - mediate
	t.Logf("mediation %.0f allocs; the proxy adds %.0f untraced, %.0f traced", mediate, untraced, traced)
	if untraced > 0 {
		t.Errorf("an untraced hit allocates %.0f times beyond mediation, want none (the connection's result is refilled)", untraced)
	}
	if traced < untraced+1 {
		t.Errorf("a traced hit allocates %.0f times beyond mediation, an untraced one %.0f: the id's string costs nothing?", traced, untraced)
	}
}

// frameReplay is a connection whose peer sends the same frame n times
// and hangs up, and reads nothing back: serveConn's loop alone, with no
// client and no socket in the allocation count.
type frameReplay struct {
	net.Conn // nil: serveConn reads, writes and, on a failed write, closes
	frame    []byte
	n        int
	r        bytes.Reader
	sent     int // frames written back
}

func (c *frameReplay) Read(p []byte) (int, error) {
	if c.r.Len() == 0 {
		if c.n == 0 {
			return 0, io.EOF
		}
		c.n--
		c.r.Reset(c.frame)
	}
	return c.r.Read(p)
}

func (c *frameReplay) Write(p []byte) (int, error) { c.sent++; return len(p), nil }
func (c *frameReplay) Close() error                { return nil }

// TestUntracedSubqueryBuildsOnlyTheResult is the same pin for the node:
// serving a sub-query allocates what decoding the query and executing it
// allocate, and nothing else — no reply message, no formatted numbers,
// and (the result being released once written) no tuples. A trace id
// rides in the string the query's fields are cut from and is parsed, not
// copied, so a traced sub-query costs what an untraced one does.
func TestUntracedSubqueryBuildsOnlyTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	n := NewDBNode("photo.sdss.org", openEDR(t, 1000))
	n.SetLogf(func(string, ...any) {})
	n.SetFlightConfig(flightrec.Config{}) // no sampled exemplars: publishing one allocates
	const sql = "select ra, dec from photoobj where ra between 0 and 350"
	const rounds = 200
	serve := func(q QueryMsg) float64 {
		conn := &frameReplay{frame: encodeFrame(t, MsgQuery, q)}
		perRun := testing.AllocsPerRun(5, func() {
			conn.n, conn.sent = rounds, 0
			n.serveConn(conn)
			if conn.sent != rounds {
				t.Fatalf("%d replies to %d sub-queries", conn.sent, rounds)
			}
		})
		return perRun / rounds
	}
	st := &statement{n: n}
	execute := testing.AllocsPerRun(rounds, func() {
		if _, err := n.execute(st, sql); err != nil {
			t.Fatal(err)
		}
		releaseSession(st)
	})
	// The decoded QueryMsg (it escapes through Decode's any) and the one
	// string its fields are cut from; the connection's read buffer, once
	// per connection, is the hundredths.
	for name, q := range map[string]QueryMsg{
		"an untraced": {SQL: sql},
		"a traced":    {SQL: sql, TraceID: "00000000000000ab"},
	} {
		if beyond := serve(q) - execute; beyond > 2.1 {
			t.Errorf("%s sub-query allocates %.3f times beyond the %.0f of executing it, want 2 (the decoded query)", name, beyond, execute)
		}
	}
}

// BenchmarkNodeSubqueryEDR is the node's side of the serving loop, as
// BenchmarkProxyHitEDR is the proxy's: one op is one sub-query frame,
// replayed to the node's loop as TestUntracedSubqueryBuildsOnlyTheResult
// replays it, read, decoded, executed over EDR at one row in 1 000 and
// answered, with the node's default flight recorder, on one connection
// (what it allocates once is spread over b.N). Answered statements are
// not scrambled here: the node's own release is what is timed.
func BenchmarkNodeSubqueryEDR(b *testing.B) {
	defer func(release func(session)) { releaseSession = release }(releaseSession)
	releaseSession = session.release
	n := NewDBNode("photo.sdss.org", openEDR(b, 1000))
	n.SetLogf(func(string, ...any) {})
	conn := &frameReplay{frame: encodeFrame(b, MsgQuery, QueryMsg{SQL: "select ra, dec from photoobj where ra between 0 and 350"}), n: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	n.serveConn(conn)
	if conn.sent != b.N {
		b.Fatalf("%d replies to %d sub-queries", conn.sent, b.N)
	}
}

// TestDecodeResultAllocs pins the result decoder's budget for a 64×24
// result without decisions, however many tuples and columns it has:
//
//	1  the ResultMsg that dst points to (it escapes through Decode's any)
//	2  Tuples, the 64 row headers
//	3  the one backing array all 64 rows are cut from
//	4  the one string all 24 column names are cut from
//	5  Columns, the 24 string headers
//
// With decisions, and with each error list, one more for its slice.
func TestDecodeResultAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		msg  *ResultMsg
		max  float64
	}{
		{"bulk", bulkResult(64, 24, false), 5},
		{"bulk with decisions", bulkResult(64, 24, true), 6},
		{"aggregate", bulkResult(1, 1, false), 5},
	} {
		body := encode(t, MsgResult, c.msg)
		allocs := testing.AllocsPerRun(1000, func() {
			var back ResultMsg
			if err := Decode(body, &back); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s: Decode allocates %.1f per result, want ≤ %.0f", c.name, allocs, c.max)
		}
	}
}

func BenchmarkWriteFrame(b *testing.B) {
	payload := &QueryMsg{SQL: "select ra, dec from photoobj where ra between 0 and 350"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := WriteFrame(io.Discard, MsgQuery, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultCodec is one result frame there and back — WriteFrame,
// ReadFrame, Decode — at the two shapes of the federation benchmark's
// codec loop (wire.encode_*_us + wire.decode_*_us): a 1×3 aggregate
// and a 64×24 bulk result, each with a decision per column.
func BenchmarkResultCodec(b *testing.B) {
	for _, c := range []struct {
		name         string
		tuples, cols int
	}{{"small", 1, 3}, {"bulk", 64, 24}} {
		b.Run(c.name, func(b *testing.B) {
			msg := bulkResult(c.tuples, c.cols, true)
			var frame bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame.Reset()
				n, err := WriteFrame(&frame, MsgResult, msg)
				if err != nil {
					b.Fatal(err)
				}
				_, body, _, err := ReadFrame(&frame)
				if err != nil {
					b.Fatal(err)
				}
				var back ResultMsg
				if err := Decode(body, &back); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n))
			}
		})
	}
}
