package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
)

// Float64 patterns a text codec loses or refuses: both NaN kinds with
// payload bits, the infinities, negative zero, the subnormal extremes.
var hardFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, 1.000123,
}

// TestFloatLoopMatchesCopy: the float helpers' loop, which a host whose
// float64 is not laid out as the wire's takes, writes and reads the bytes
// the copy does on this host, hard floats and random bit patterns alike,
// in runs from none to one past the 2 816 floats of a `select *` reply
// from photoobj.
func TestFloatLoopMatchesCopy(t *testing.T) {
	if !floatsAreWire {
		t.Skip("this host has the loop alone")
	}
	r := rand.New(rand.NewSource(56))
	fs := append([]float64(nil), hardFloats...)
	for len(fs) < 2817 {
		fs = append(fs, math.Float64frombits(r.Uint64()))
	}
	for _, n := range []int{0, 1, 2, 7, len(hardFloats), 24, 2816, 2817} {
		run := fs[:n]
		copied := appendFloats([]byte{0xab}, run)
		copiedBack := make([]float64, n)
		getFloats(copiedBack, copied[1:])
		floatsAreWire = false
		looped := appendFloats([]byte{0xab}, run)
		loopedBack := make([]float64, n)
		getFloats(loopedBack, looped[1:])
		floatsAreWire = true
		if !bytes.Equal(copied, looped) {
			t.Fatalf("%d floats: the copy writes\n%x\nthe loop\n%x", n, copied, looped)
		}
		for i, v := range run {
			if b := math.Float64bits(v); math.Float64bits(copiedBack[i]) != b || math.Float64bits(loopedBack[i]) != b {
				t.Fatalf("%d floats: float %d, %016x, reads back %016x by the copy and %016x by the loop",
					n, i, b, math.Float64bits(copiedBack[i]), math.Float64bits(loopedBack[i]))
			}
		}
	}
}

// bulkResult is the 64×24 result of the benchmark's codec loop
// (bench/trace.go syntheticResult), with or without its decisions.
func bulkResult(tuples, cols int, decisions bool) *ResultMsg {
	msg := &ResultMsg{Rows: int64(tuples) * 1000, Bytes: int64(tuples*cols) * 8000}
	for c := 0; c < cols; c++ {
		msg.Columns = append(msg.Columns, "photoobj.col"+string(rune('a'+c)))
		if decisions {
			msg.Decisions = append(msg.Decisions, DecisionMsg{
				Object: "edr/photoobj.col" + string(rune('a'+c)), Site: "photo.sdss.org",
				Yield: int64(tuples) * 8000, Decision: "bypass"})
		}
	}
	for t := 0; t < tuples; t++ {
		row := make([]float64, cols)
		for c := range row {
			row[c] = float64(t*cols+c) * 1.000123
		}
		msg.Tuples = append(msg.Tuples, row)
	}
	return msg
}

// randomResult draws a message that uses every part of the layout
// with some probability: empty and ragged tuples, hard floats, every
// decision, flag and error-list combination.
func randomResult(r *rand.Rand) *ResultMsg {
	str := func() string {
		b := make([]byte, r.Intn(20))
		r.Read(b) // not UTF-8: the wire carries bytes
		return string(b)
	}
	float := func() float64 {
		if r.Intn(3) == 0 {
			return hardFloats[r.Intn(len(hardFloats))]
		}
		return math.Float64frombits(r.Uint64())
	}
	siteErrors := func() []SiteErrorMsg {
		var out []SiteErrorMsg
		for i := r.Intn(3); i > 0; i-- {
			out = append(out, SiteErrorMsg{Site: str(), Error: str(), LostBytes: r.Int63() - r.Int63()})
		}
		return out
	}
	m := &ResultMsg{Rows: r.Int63() - r.Int63(), Bytes: r.Int63() - r.Int63(), Partial: r.Intn(2) == 0}
	for i := r.Intn(5); i > 0; i-- {
		m.Columns = append(m.Columns, str())
	}
	width, ragged := r.Intn(5), r.Intn(4) == 0
	for i := r.Intn(6); i > 0; i-- {
		w := width
		if ragged {
			w = r.Intn(5)
		}
		row := make([]float64, w)
		for j := range row {
			row[j] = float()
		}
		m.Tuples = append(m.Tuples, row)
	}
	for i := r.Intn(4); i > 0; i-- {
		m.Decisions = append(m.Decisions, DecisionMsg{
			Object: str(), Site: str(), Yield: r.Int63() - r.Int63(),
			Decision: decisionNames[r.Intn(len(decisionNames))],
			Forced:   r.Intn(2) == 0, Failed: r.Intn(2) == 0, Reason: str(),
		})
	}
	m.SiteErrors, m.TransportErrors = siteErrors(), siteErrors()
	return m
}

// sameResult is deep equality with floats compared by their bits (NaN
// equals the same NaN, 0 differs from −0) and an empty list equal to
// an absent one, which the wire does not tell apart.
func sameResult(a, b *ResultMsg) bool {
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if len(a.Tuples[i]) != len(b.Tuples[i]) {
			return false
		}
		for j, v := range a.Tuples[i] {
			if math.Float64bits(v) != math.Float64bits(b.Tuples[i][j]) {
				return false
			}
		}
	}
	x, y := *a, *b
	x.Tuples, y.Tuples = nil, nil
	for _, m := range []*ResultMsg{&x, &y} {
		if len(m.Columns) == 0 {
			m.Columns = nil
		}
		if len(m.Decisions) == 0 {
			m.Decisions = nil
		}
		if len(m.SiteErrors) == 0 {
			m.SiteErrors = nil
		}
		if len(m.TransportErrors) == 0 {
			m.TransportErrors = nil
		}
	}
	return reflect.DeepEqual(x, y)
}

// encode frames payload and returns the body ReadFrame hands back.
func encode(t *testing.T, typ MsgType, payload any) []byte {
	t.Helper()
	frame := encodeFrame(t, typ, payload)
	got, body, n, err := ReadFrame(bytes.NewReader(frame))
	if err != nil || got != typ || n != len(frame) {
		t.Fatalf("ReadFrame = (%v, %d bytes, %v), wrote %v, %d bytes", got, n, err, typ, len(frame))
	}
	return body
}

// TestResultRoundTrip is the codec's property: Decode(WriteFrame(m))
// is m, bit for bit, whether m travels as a value or a pointer.
func TestResultRoundTrip(t *testing.T) {
	allFlags := &ResultMsg{Columns: []string{"t.a"}, Partial: true,
		SiteErrors:      []SiteErrorMsg{{Site: "spec.sdss.org", Error: "breaker open", LostBytes: 1 << 40}},
		TransportErrors: []SiteErrorMsg{{Site: "photo.sdss.org", Error: "i/o timeout"}, {}}}
	for i, name := range decisionNames {
		for f := 0; f < 4; f++ {
			allFlags.Decisions = append(allFlags.Decisions, DecisionMsg{
				Object: "edr/photoobj.ra", Site: "photo.sdss.org", Yield: int64(i*4+f) - 3,
				Decision: name, Forced: f&1 != 0, Failed: f&2 != 0,
				Reason: strings.Repeat("breaker open site=photo.sdss.org ", f)})
		}
	}
	hard := &ResultMsg{Columns: []string{"x"}, Rows: math.MinInt64, Bytes: math.MaxInt64}
	for i := 0; i < len(hardFloats); i += 4 {
		hard.Tuples = append(hard.Tuples, hardFloats[i:i+4])
	}
	cases := []*ResultMsg{
		{}, // empty
		{Columns: []string{"count(*)"}, Rows: 1, Bytes: 8, Tuples: [][]float64{{42}}}, // 1×1 aggregate
		bulkResult(64, 24, true),
		{Columns: []string{"a", "b"}, Tuples: [][]float64{{1, 2}, {}, {3}, nil, {4, 5, 6}}}, // ragged
		{Tuples: [][]float64{{}, {}, {}}},                                   // rectangular, width 0
		{Columns: []string{"a"}, Tuples: [][]float64{{1, 2, 3}, {4, 5, 6}}}, // wider than its header
		hard,
		allFlags,
	}
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 500; i++ {
		cases = append(cases, randomResult(r))
	}
	for i, m := range cases {
		for _, payload := range []any{m, *m} {
			var back ResultMsg
			if err := Decode(encode(t, MsgResult, payload), &back); err != nil {
				t.Fatalf("case %d: %+v: %v", i, m, err)
			}
			if !sameResult(m, &back) {
				t.Fatalf("case %d (%T):\n sent %+v\n got  %+v", i, payload, m, &back)
			}
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	for _, q := range []QueryMsg{
		{},
		{SQL: "select ra, dec from photoobj where ra between 0 and 350"},
		{SQL: "select 1", TraceID: "00000000000000ab"},
		{SQL: strings.Repeat("x", 70000), TraceID: "not-hex"},
	} {
		for _, payload := range []any{q, &q} {
			var back QueryMsg
			if err := Decode(encode(t, MsgQuery, payload), &back); err != nil {
				t.Fatal(err)
			}
			if back != q {
				t.Fatalf("sent %+v (%T), got %+v", q, payload, back)
			}
		}
	}
}

// TestDecodeTruncation cuts a valid body at every offset, and extends
// it: each must be an error, never a panic or a partial message.
func TestDecodeTruncation(t *testing.T) {
	res := encode(t, MsgResult, bulkResult(3, 2, true))
	ragged := encode(t, MsgResult, &ResultMsg{Columns: []string{"a"}, Tuples: [][]float64{{1}, {2, 3}},
		Partial: true, SiteErrors: []SiteErrorMsg{{Site: "s", Error: "e", LostBytes: 9}}})
	query := encode(t, MsgQuery, QueryMsg{SQL: "select 1", TraceID: "00000000000000ab"})
	for _, c := range []struct {
		body []byte
		dst  func() any
	}{
		{res, func() any { return &ResultMsg{Rows: -1} }},
		{ragged, func() any { return &ResultMsg{Rows: -1} }},
		{query, func() any { return &QueryMsg{SQL: "untouched"} }},
	} {
		for cut := 0; cut < len(c.body); cut++ {
			dst, want := c.dst(), c.dst()
			if err := Decode(c.body[:cut], dst); err == nil {
				t.Fatalf("%T cut at %d of %d decoded", dst, cut, len(c.body))
			}
			if !reflect.DeepEqual(dst, want) {
				t.Fatalf("%T cut at %d: a failed decode wrote %+v", dst, cut, dst)
			}
		}
		if err := Decode(append(c.body[:len(c.body):len(c.body)], 0), c.dst()); err == nil {
			t.Fatalf("%T with a trailing byte decoded", c.dst())
		}
	}
}

// TestDecodeBoundsCounts: a count is an error, not a make, when the
// bytes behind it could not hold that many elements.
func TestDecodeBoundsCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<32)
	head := []byte{formatBinary, 0, 0, 0} // flags, Rows, Bytes
	bodies := map[string][]byte{
		"tuples":        append(append([]byte{}, head...), append(huge, 1, 0, 0)...),
		"width":         append(append([]byte{}, head...), append([]byte{1}, huge...)...),
		"zero width":    append(append([]byte{}, head...), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"ragged tuples": append([]byte{formatBinary, resultRagged, 0, 0}, huge...),
		"ragged width":  append([]byte{formatBinary, resultRagged, 0, 0, 1}, huge...),
		"columns":       append(append(append([]byte{}, head...), 0), huge...),
		"decisions":     append(append(append([]byte{}, head...), 0, 0), huge...),
		"site errors":   append(append(append([]byte{}, head...), 0, 0, 0), huge...),
		"string":        append(append(append([]byte{}, head...), 0, 1), huge...),
		"bad verdict":   append(append([]byte{}, head...), 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 0),
		"bad flags":     {formatBinary, 0x80, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, body := range bodies {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := Decode(body, &ResultMsg{})
		runtime.ReadMemStats(&ms1)
		if err == nil || errors.Is(err, ErrProtocolVersion) {
			t.Errorf("%s: err = %v, want a malformed-payload error", name, err)
		}
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusing a %d-byte body allocated %d bytes", name, len(body), grew)
		}
	}
	if err := Decode(append([]byte{formatBinary}, huge...), &QueryMsg{}); err == nil {
		t.Error("query: a 2³² string length in a 6-byte body decoded")
	}
}

// TestClientStoreInternsNames pins what a Client's store adds to Decode:
// a reply like one it has decoded before — same shape, same names — is
// decoded without an allocation, its strings being the ones the first
// reply left in the store's names; and the names are bounded, in number
// and in length, whatever a peer sends.
func TestClientStoreInternsNames(t *testing.T) {
	st := resultStore{names: names{}}
	body := encode(t, MsgResult, bulkResult(64, 24, true))
	var first, again ResultMsg
	if err := decodeInto(body, &first, &st); err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), first.Columns...)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := decodeInto(body, &again, &st); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decoding a reply like the last allocates %.1f times, want 0", allocs)
	}
	if !sameResult(&again, bulkResult(64, 24, true)) || !reflect.DeepEqual(again.Columns, want) {
		t.Fatalf("decoded %+v", again)
	}

	// A peer that never repeats a name, and one that sends long ones.
	long := strings.Repeat("x", maxNameLen+1)
	for i := 0; i < maxNames+500; i++ {
		msg := &ResultMsg{Columns: []string{fmt.Sprintf("col%d", i), long + fmt.Sprint(i)}}
		var m ResultMsg
		if err := decodeInto(encode(t, MsgResult, msg), &m, &st); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Columns, msg.Columns) {
			t.Fatalf("decoded columns %q, want %q", m.Columns, msg.Columns)
		}
	}
	if len(st.names) > maxNames {
		t.Errorf("the store keeps %d names, want <= %d", len(st.names), maxNames)
	}
	for name := range st.names {
		if len(name) > maxNameLen {
			t.Fatalf("the store keeps a name of %d bytes, want <= %d", len(name), maxNameLen)
		}
	}
}

// jsonFrame hand-frames a protocol-1 payload, as a peer built before
// the binary layout would send it.
func jsonFrame(t *testing.T, typ MsgType, payload any) []byte {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return rawFrame(byte(typ), body)
}

// refusedByVersion sends a protocol-1 query to a daemon and checks it
// is told why, in a frame it can read, and that the daemon goes on
// serving: the same connection, then a new one.
func refusedByVersion(t *testing.T, addr, goodSQL string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	if _, err := conn.Write(jsonFrame(t, MsgQuery, map[string]string{"sql": "select 1"})); err != nil {
		t.Fatal(err)
	}
	typ, body, _, err := ReadFrame(conn)
	if err != nil || typ != MsgError {
		t.Fatalf("reply = (%v, %v), want a MsgError", typ, err)
	}
	var e struct{ Message string } // as an old client parses it
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("the refusal is not JSON: %v", err)
	}
	for _, want := range []string{"protocol version", "protocol 1", "protocol 3"} {
		if !strings.Contains(e.Message, want) {
			t.Errorf("refusal %q does not name %q", e.Message, want)
		}
	}
	if _, err := c.Query(goodSQL); err != nil {
		t.Fatalf("connection after the refusal: %v", err)
	}
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Query(goodSQL); err != nil {
		t.Fatalf("next connection: %v", err)
	}
}

func TestProxyRefusesProtocol1Query(t *testing.T) {
	p, _, done := newSimProxy(t, nil)
	defer done()
	refusedByVersion(t, p.ln.Addr().String(), "select ra from photoobj where ra < 10")
}

// listenNode starts a quiet node for one site of a schema and returns
// it with its address; the test's cleanup closes it.
func listenNode(t *testing.T, site string, s *catalog.Schema, cfg engine.Config) (*DBNode, string) {
	t.Helper()
	db, err := engine.Open(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := NewDBNode(site, db)
	n.SetLogf(func(string, ...any) {})
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, addr
}

func TestDBNodeRefusesProtocol1Query(t *testing.T) {
	_, addr := listenNode(t, catalog.SiteSpec, catalog.EDR(), engine.Config{Seed: 1, SampleEvery: 100000})
	refusedByVersion(t, addr, "select z from specobj where z < 1")
}

// A protocol-2 peer's query — the same strings, and one more after
// them — is refused by version, not mis-decoded.
func TestProtocol2QueryRefusedByName(t *testing.T) {
	old := appendStr(appendStr(appendStr([]byte{2}, "select 1"), ""), "")
	err := Decode(old, &QueryMsg{})
	if !errors.Is(err, ErrProtocolVersion) || !strings.Contains(err.Error(), "payload format 2") {
		t.Fatalf("err = %v, want ErrProtocolVersion naming payload format 2", err)
	}
}

func TestClientRefusesProtocol1Result(t *testing.T) {
	server, client := net.Pipe()
	c := NewClient(client)
	defer c.Close()
	old := jsonFrame(t, MsgResult, map[string]any{"columns": []string{"a"}, "rows": 1, "bytes": 8})
	go func() {
		defer server.Close()
		if _, _, _, err := ReadFrame(server); err == nil {
			server.Write(old)
		}
	}()
	_, err := c.Query("select 1")
	if !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("err = %v, want ErrProtocolVersion", err)
	}
}

// nanSchema is one table whose flux column synthesizes as NaN and
// whose err column as +Inf: results JSON could not carry.
func nanSchema() *catalog.Schema {
	return &catalog.Schema{Name: "nan", Tables: []catalog.Table{{
		Name: "t", Rows: 4, Site: "nan.site",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int64, Max: 4, Key: true},
			{Name: "flux", Type: catalog.Float64, Min: math.NaN(), Max: math.NaN()},
			{Name: "err", Type: catalog.Float64, Min: 1, Max: math.Inf(1)},
		},
	}}}
}

// TestNaNResultReachesClient is the regression test for the silent
// send: a NaN tuple used to fail json.Marshal inside DBNode.send,
// which dropped the error, sent nothing and left the closed-loop
// client waiting forever. It must now arrive, bit for bit.
func TestNaNResultReachesClient(t *testing.T) {
	n, addr := listenNode(t, "nan.site", nanSchema(), engine.Config{Seed: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second)) // the old failure was a hang

	stmt := "select flux, err from t"
	res, err := n.execute(new(statement), stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := &ResultMsg{Columns: res.Columns, Rows: res.Rows, Bytes: res.Bytes, Tuples: res.Tuples}
	got, err := c.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 4 || !math.IsNaN(got.Tuples[0][0]) || !math.IsInf(got.Tuples[0][1], 1) {
		t.Fatalf("tuples = %v, want 4 rows of (NaN, +Inf)", got.Tuples)
	}
	if !sameResult(want, got) {
		t.Fatalf("executed %+v\nreceived %+v", want, got)
	}
}

// TestSendAnswersEncodeFailure: a reply that cannot be encoded (here a
// decision the layout has no byte for) becomes a MsgError on the same
// connection, and so does a frame of a type the daemon does not serve —
// a fetch at the proxy, a scrape's reply at either — naming the daemon;
// each is one reply, and the connection answers on, at the proxy and the
// node alike.
func TestSendAnswersEncodeFailure(t *testing.T) {
	p, _, done := newSimProxy(t, nil)
	defer done()
	n := NewDBNode("s", tinyDB(t))
	bad := &ResultMsg{Decisions: []DecisionMsg{{Object: "edr/photoobj", Decision: "evict"}}}
	for _, c := range []struct {
		daemon   *server
		unserved map[MsgType]any
	}{
		{p.server, map[MsgType]any{MsgFetch: FetchMsg{Object: "edr/photoobj"}, MsgScrapeResult: ScrapeResultMsg{}}},
		{n.server, map[MsgType]any{MsgScrapeResult: ScrapeResultMsg{}}},
	} {
		name := c.daemon.name
		server, client := net.Pipe()
		go func() {
			c.daemon.send(server, MsgResult, bad)
			c.daemon.send(server, MsgPong, PongMsg{Site: "still here"})
		}()
		cl := NewClient(client)
		var res ResultMsg
		err := cl.reply(MsgResult, &res)
		if err == nil || !strings.Contains(err.Error(), `decision "evict"`) {
			t.Fatalf("%s: err = %v, want the encode failure as a server error", name, err)
		}
		var pong PongMsg
		if err := cl.reply(MsgPong, &pong); err != nil || pong.Site != "still here" {
			t.Fatalf("%s: connection after the failure: %+v, %v", name, pong, err)
		}

		served := make(chan struct{})
		go func() {
			defer close(served)
			c.daemon.serveConn(server)
		}()
		for typ, payload := range c.unserved {
			if _, err := WriteFrame(client, typ, payload); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("wire: server: %s: unexpected message type %s", name, typ)
			if err := cl.reply(MsgPong, &pong); err == nil || err.Error() != want {
				t.Fatalf("%s answered a %s frame with %v, want %q", name, typ, err, want)
			}
		}
		// The next reply is the ping's: the refusals were one frame each.
		if got, err := cl.Ping(); err != nil || got.Site != name {
			t.Fatalf("%s: connection after the refusals: %+v, %v", name, got, err)
		}
		cl.Close()
		<-served
		if got, want := c.daemon.framesTx.Get("error").Value(), int64(1+len(c.unserved)); got != want {
			t.Errorf("%s: wire.frames_tx{error} = %d, want %d", name, got, want)
		}
	}
}

// TestSendClosesOnWriteFailure: when the frame cannot be written the
// connection is closed, so the serve loop ends instead of reading on.
func TestSendClosesOnWriteFailure(t *testing.T) {
	p, _, done := newSimProxy(t, nil)
	defer done()
	n := NewDBNode("s", tinyDB(t))
	for name, send := range map[string]func(net.Conn, MsgType, any){"proxy": p.send, "node": n.send} {
		server, client := net.Pipe()
		client.Close() // every write to server now fails
		send(server, MsgPong, PongMsg{})
		if _, err := server.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("%s: read after a failed send = %v, want a closed connection", name, err)
		}
	}
}

// tinyDB opens the smallest engine a DBNode can be built around.
func tinyDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.Open(nanSchema(), engine.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFrameReaderReusesBuffer: a connection's second frame lands in the
// first one's storage, both out of one Read; a giant frame's buffer is
// not kept, and what follows it reads as before.
func TestFrameReaderReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	for _, sql := range []string{"select ra, dec from photoobj", "select z from specobj"} {
		if _, err := WriteFrame(&stream, MsgQuery, QueryMsg{SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader()
	storage := &fr.buf[0]
	_, first, _, err := fr.next(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Len() != 0 {
		t.Errorf("the first Read left %d bytes of a %d-byte stream behind", stream.Len(), fr.end)
	}
	_, second, _, err := fr.next(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &fr.buf[frameHeader] || &fr.buf[0] != storage {
		t.Error("the frames were read into fresh storage")
	}
	var q QueryMsg
	if err := Decode(second, &q); err != nil || q.SQL != "select z from specobj" {
		t.Fatalf("second frame = %+v, %v", q, err)
	}

	giant := strings.Repeat("x", frameBufMaxCap+1)
	for _, sql := range []string{giant, "select z from specobj"} {
		if _, err := WriteFrame(&stream, MsgQuery, QueryMsg{SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	if _, body, _, err := fr.next(&stream); err != nil || len(body) <= frameBufMaxCap || len(fr.buf) != readAhead {
		t.Fatalf("giant frame: %d bytes, %v, kept a buffer of %d", len(body), err, len(fr.buf))
	}
	if _, body, _, err := fr.next(&stream); err != nil || Decode(body, &q) != nil || q.SQL != "select z from specobj" {
		t.Fatalf("the frame after the giant one = %+v, %v", q, err)
	}
}

// TestNodeReplies: a pooled connection's replies come off its reader
// one frame at a time, in order, when they arrive back to back;
// checkReply takes a reply of the type the leg wants for success, the
// error reply for the node's failure and a reply of any other type for a
// failure naming it; a truncated reply is an error, not a short body.
func TestNodeReplies(t *testing.T) {
	var stream bytes.Buffer
	n1, _ := WriteFrame(&stream, MsgResult, bulkResult(64, 24, false))
	n2, _ := WriteFrame(&stream, MsgError, ErrorMsg{Message: "table photoobj is owned by photo.sdss.org"})
	n3, _ := WriteFrame(&stream, MsgFetchAck, FetchAckMsg{Object: "edr/photoobj", Size: 7})
	n4, _ := WriteFrame(&stream, MsgResult, bulkResult(1, 1, false))
	fr := newFrameReader()
	for i, want := range []struct {
		t, want MsgType // the reply's type, the leg's
		n       int
		failed  string
	}{
		{MsgResult, MsgResult, n1, ""},
		{MsgError, MsgResult, n2, "node photo.sdss.org: table photoobj is owned by photo.sdss.org"},
		{MsgFetchAck, MsgFetchAck, n3, ""},
		{MsgResult, MsgFetchAck, n4, "node photo.sdss.org: result reply, want fetch_ack"},
	} {
		typ, body, n, err := fr.next(&stream)
		if err != nil || typ != want.t || n != want.n {
			t.Fatalf("reply %d = (%v, %d, %v), want (%v, %d)", i, typ, n, err, want.t, want.n)
		}
		err = checkReply("node photo.sdss.org", typ, body, want.want, nil, nil)
		if (err != nil) != (want.failed != "") || err != nil && err.Error() != want.failed {
			t.Fatalf("reply %d: checkReply = %v, want %q", i, err, want.failed)
		}
	}
	if stream.Len() != 0 {
		t.Fatalf("%d bytes left unread", stream.Len())
	}
	fr = newFrameReader()
	trunc := bytes.NewReader(encodeFrame(t, MsgResult, bulkResult(4, 4, false))[:40])
	if _, _, _, err := fr.next(trunc); err == nil {
		t.Fatal("a truncated reply read without error")
	}
}

// encodeFrame is WriteFrame into memory: the whole frame.
func encodeFrame(t testing.TB, typ MsgType, payload any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
