package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/faultnet"
	"bypassyield/internal/federation"
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

// benchSchema is a four-site release (one table per site) so the
// throughput benchmark exercises more WAN parallelism than EDR's three
// sites offer.
func benchSchema() *catalog.Schema {
	s := &catalog.Schema{Name: "bench"}
	for i := 0; i < 4; i++ {
		s.Tables = append(s.Tables, catalog.Table{
			Name: fmt.Sprintf("t%d", i),
			Columns: []catalog.Column{
				{Name: "id", Type: catalog.Int64, Max: 1_000_000, Key: true},
				{Name: "a", Type: catalog.Float64, Max: 360},
				{Name: "b", Type: catalog.Float64, Min: -90, Max: 90},
			},
			Rows: 1_000_000,
			Site: fmt.Sprintf("site%d.bench", i),
		})
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// benchFederation stands up the 4-site federation with ~2ms of
// injected latency per conn operation (the simulated WAN) and the
// given pipeline bounds.
func benchFederation(b *testing.B, maxInflight, maxLegs int) (addr string, shutdown func()) {
	b.Helper()
	s := benchSchema()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 10_000})
	if err != nil {
		b.Fatal(err)
	}
	quiet := func(string, ...any) {}

	var nodes []*DBNode
	addrs := map[string]string{}
	for i := range s.Tables {
		site := s.Tables[i].Site
		n := NewDBNode(site, db)
		n.SetLogf(quiet)
		naddr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
		addrs[site] = naddr
	}

	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Granularity: federation.Tables,
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	proxy := NewProxy(med, federation.Tables, addrs)
	proxy.SetLogf(quiet)
	proxy.SetConcurrency(maxInflight, maxLegs)

	inj := faultnet.NewInjector(3)
	inj.Set(faultnet.Faults{Latency: 2 * time.Millisecond})
	proxy.SetDialer(func(_, a string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", a, time.Second)
		if err != nil {
			return nil, err
		}
		return inj.Conn(c), nil
	})

	addr, err = proxy.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	return addr, func() {
		proxy.Close()
		for _, n := range nodes {
			n.Close()
		}
		inj.Stop()
	}
}

// runProxyBench drives b.N queries through the proxy from `clients`
// concurrent connections and reports queries/sec plus the client-side
// p50/p99 query latency. With no cache policy every access bypasses,
// so each query ships one sub-query leg over the simulated WAN — the
// leg, not local compute, dominates.
func runProxyBench(b *testing.B, addr string, clients int) {
	queries := []string{
		"select a, b from t0 where a between 0 and 300",
		"select a, b from t1 where a between 0 and 300",
		"select a, b from t2 where a between 0 and 300",
		"select a, b from t3 where a between 0 and 300",
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var latencies []int64 // microseconds, merged per client at exit
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				b.Error(err)
				return
			}
			defer cl.Close()
			var lats []int64
			defer func() {
				mu.Lock()
				latencies = append(latencies, lats...)
				mu.Unlock()
			}()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				qStart := time.Now()
				if _, err := cl.Query(queries[int(i)%len(queries)]); err != nil {
					b.Error(err)
					return
				}
				lats = append(lats, time.Since(qStart).Microseconds())
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/sec")
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		quantile := func(q float64) float64 {
			idx := int(q * float64(len(latencies)-1))
			return float64(latencies[idx])
		}
		b.ReportMetric(quantile(0.50), "p50-us")
		b.ReportMetric(quantile(0.99), "p99-us")
	}
}

// BenchmarkProxyThroughput measures the concurrent pipeline against
// the serial baseline: 8 clients over 4 sites with ~2ms simulated WAN
// latency per conn operation.
//
//	make bench-proxy    # distills both runs into BENCH_proxy.json
//
// serial pins the pipeline to one query at a time (the pre-pipeline
// proxy); concurrent8 uses the default bounds, so 8 client queries
// overlap end-to-end and their legs share the per-site pools.
func BenchmarkProxyThroughput(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		addr, shutdown := benchFederation(b, 1, 1)
		defer shutdown()
		runProxyBench(b, addr, 8)
	})
	b.Run("concurrent8", func(b *testing.B) {
		addr, shutdown := benchFederation(b, 0, 0) // defaults: 64 inflight, unbounded legs
		defer shutdown()
		runProxyBench(b, addr, 8)
	})
}
