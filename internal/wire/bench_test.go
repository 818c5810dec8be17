package wire

import (
	"bytes"
	"io"
	"testing"

	"bypassyield/internal/obs"
	"bypassyield/internal/sqlparse"
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
// on top of parsing and mediating it, by difference: with no tracer
// attached, handleQuery allocates the ResultMsg and its decisions and
// nothing else — no span attributes, no formatted numbers. With a ring
// tracer the same query pays for its spans, which shows the bound
// measures what it claims to.
func TestUntracedHitBuildsOnlyTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	p, _, done := newSimProxy(t, nil)
	defer done()
	const sql = "select ra, dec from photoobj where ra between 0 and 350"
	for i := 0; ; i++ {
		res, err := p.handleQuery(sql, obs.TraceContext{}, nil)
		if err != nil {
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
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.med.QueryStmtTraced(sql, stmt, ""); err != nil {
			t.Fatal(err)
		}
	})
	handle := func() float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := p.handleQuery(sql, obs.TraceContext{}, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	untraced := handle() - mediate
	p.SetTracer(obs.NewTracer(obs.NewRing(64)))
	traced := handle() - mediate
	t.Logf("mediation %.0f allocs; the proxy adds %.0f untraced, %.0f traced", mediate, untraced, traced)
	if untraced > 2 {
		t.Errorf("an untraced hit allocates %.0f times beyond mediation, want <= 2 (the result and its decisions)", untraced)
	}
	if traced < untraced+4 {
		t.Errorf("a traced hit allocates %.0f times beyond mediation, an untraced one %.0f: the spans cost nothing?", traced, untraced)
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
