package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/persist"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/wire"
)

// span is one timed call into a layer's public function. The spans of
// one statement share Stmt; Parent is the id of the span that caused
// this one, -1 for the root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Stmt    int     `json:"stmt"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans in memory; one goroutine owns it.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(stmt, parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name,
		StartUS: us(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	sp := &t.spans[id]
	sp.DurUS = us(time.Since(t.t0)) - sp.StartUS
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Span names: the public function each one times.
const (
	spClient    = "client.query" // root: wire.Client.Query, or Mediator.QueryStmt without the wire
	spParse     = "sqlparse.Parse"
	spBind      = "engine.Bind"
	spExecute   = "engine.DB.Execute"
	spDecompose = "federation.Decompose"
	spQuery     = "federation.Mediator.QueryStmt" // on the twin mediator
	spJournal   = "persist.Manager.JournalAccess" // child of spQuery
	spEncode    = "wire.WriteFrame"
	spDecode    = "wire.ReadFrame+Decode"
	spNode      = "wire.WriteFrame+ReadFrame(node)" // one sub-query exchange per bypassed table
)

// journalSpan stands between the twin mediator and its state manager so
// every Manager.JournalAccess call is a span under the current
// QueryStmt span. It also keeps the first records for the fsync loop.
type journalSpan struct {
	mgr    *persist.Manager
	tr     *tracer
	stmt   int
	parent int
	kept   []federation.JournalRecord
}

func (j *journalSpan) JournalAccess(rec federation.JournalRecord) {
	id := j.tr.begin(j.stmt, j.parent, spJournal)
	j.mgr.JournalAccess(rec)
	j.tr.end(id)
	if len(j.kept) < cap(j.kept) {
		j.kept = append(j.kept, rec)
	}
}

// tableOf extracts the table from an object id "release/table[.column]".
func tableOf(object core.ObjectID) string {
	rest := string(object)
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// baseline is the untraced single-caller run the traced one is
// compared with, and the source of the process-wide runtime deltas.
type baseline struct {
	p50us                      float64
	allocKB, allocs, gcPauseMS float64
}

func runBaseline(ctx context.Context, s spec, sqls []string, scratch string) (b baseline, err error) {
	f, err := startFed(s.fedConfig(scratch))
	if err != nil {
		return b, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	query, done, err := connect(f, s, sqls, 1, false)
	if err != nil {
		return b, err
	}
	defer done()
	lat := make([]time.Duration, 0, len(sqls))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range sqls {
		if err := ctx.Err(); err != nil {
			return b, err
		}
		t0 := time.Now()
		if a := query(0, i); a.err != nil {
			return b, a.err
		}
		lat = append(lat, time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	n := float64(len(sqls))
	b.p50us = quantileMS(lat, 0.5) * 1000
	b.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
	b.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	b.gcPauseMS = ms(time.Duration(m1.PauseTotalNs - m0.PauseTotalNs))
	return b, nil
}

// runTraced is the traced pass of one workload: one caller sends each
// statement through the real path under a root span, then steps it
// through the same public calls one by one under child spans, the
// mediator's on a twin of the real one. Everything is timed from the
// benchmark's side of the calls; the layers are not instrumented.
func runTraced(ctx context.Context, s spec, seed int64, sz sizes, scratch string) (out passResult, spans []span, err error) {
	out = passResult{Workload: s.Name, Seed: seed, Callers: 1, Statements: sz.traced, Samples: sz.traced, Reps: 1, Checks: []string{}}
	in, err := generate(s, 0, sz.traced, rand.New(rand.NewSource(seed)).Intn(sz.traced))
	if err != nil {
		return out, nil, err
	}
	sqls := in.sqls
	out.Digest = in.digest
	// A throwaway tenth first, so that neither run below pays for the
	// process's first heap growth and page faults.
	if _, err := runBaseline(ctx, s, sqls[:len(sqls)/10], scratch); err != nil {
		return out, nil, err
	}
	base, err := runBaseline(ctx, s, sqls, scratch)
	if err != nil {
		return out, nil, err
	}

	// The real federation always has the wire up here, so the wire
	// layer is measured on every workload, also where it is off the
	// workload's path.
	dirs := map[string]string{}
	for _, k := range []string{"twin", "sync"} {
		if dirs[k], err = os.MkdirTemp(scratch, k+"-"); err != nil {
			return out, nil, err
		}
		defer os.RemoveAll(dirs[k])
	}
	cfg := s.fedConfig(scratch)
	cfg.wire = true
	f, err := startFed(cfg)
	if err != nil {
		return out, nil, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	twinCfg := cfg
	twinCfg.durable = false // the twin's journal goes through journalSpan
	twinReg := obs.NewRegistry()
	twin, err := newMediator(f.schema, f.db, twinCfg, twinReg, false)
	if err != nil {
		return out, nil, err
	}
	mgr, err := openPersist(dirs["twin"], twin, twinReg, false)
	if err != nil {
		return out, nil, err
	}
	mgrOpen := true
	defer func() {
		if mgrOpen {
			mgr.Close()
		}
	}()
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, 12*len(sqls))}
	js := &journalSpan{mgr: mgr, tr: tr, kept: make([]federation.JournalRecord, 0, 256)}
	twin.SetJournal(js)

	query, done, err := connect(f, s, sqls, 1, true)
	if err != nil {
		return out, nil, err
	}
	defer done()
	admin, err := f.dial(1) // Stats, Metrics and Ping, also when the root skips the wire
	if err != nil {
		return out, nil, err
	}
	defer closeClients(admin)
	nodes := map[string]net.Conn{}
	for site, addr := range f.addrs {
		c, err := net.DialTimeout("tcp", addr, wire.DefaultDialTimeout)
		if err != nil {
			return out, nil, err
		}
		defer c.Close()
		nodes[site] = c
	}
	stats0, err := admin[0].Stats()
	if err != nil {
		return out, nil, err
	}

	var (
		rowsScanned          = f.reg.Counter("engine.rows_scanned")
		scanned, delivered   int64
		decideUS, lockWaitUS int64
		legs, frameBytes     int
		mismatched           int
		requests             = make([]core.Request, 0, len(sqls))
		frame                bytes.Buffer
	)
	for i, sql := range sqls {
		if err := ctx.Err(); err != nil {
			return out, nil, err
		}
		root := tr.begin(i, -1, spClient)
		got := query(0, i)
		tr.end(root)
		if got.err != nil {
			return out, nil, got.err
		}
		out.Attempted++
		if got.partial {
			out.Failed++
		}
		delivered += got.bytes

		id := tr.begin(i, root, spParse)
		stmt, err := sqlparse.Parse(sql)
		tr.end(id)
		if err != nil {
			return out, nil, err
		}
		id = tr.begin(i, root, spBind)
		bound, err := engine.Bind(f.schema, stmt)
		tr.end(id)
		if err != nil {
			return out, nil, err
		}
		before := rowsScanned.Value()
		id = tr.begin(i, root, spExecute)
		res, err := f.db.Execute(stmt)
		tr.end(id)
		if err != nil {
			return out, nil, err
		}
		scanned += rowsScanned.Value() - before
		id = tr.begin(i, root, spDecompose)
		federation.Decompose(bound, f.schema.Name, res.Bytes, cfg.gran)
		tr.end(id)

		id = tr.begin(i, root, spQuery)
		js.stmt, js.parent = i, id
		rep, err := twin.QueryStmt(sql, stmt)
		tr.end(id)
		if err != nil {
			return out, nil, err
		}
		decideUS += rep.DecideUS
		lockWaitUS += rep.LockWaitUS
		if strings.Join(decisionKeys(rep), ";") != strings.Join(got.decisions, ";") {
			mismatched++
		}

		// The result frame the proxy would send, both ways.
		msg := &wire.ResultMsg{Columns: rep.Result.Columns, Rows: rep.Result.Rows,
			Bytes: rep.Result.Bytes, Tuples: rep.Result.Tuples}
		req := core.Request{Seq: int64(i + 1)}
		bypassed := map[string]bool{}
		for _, d := range rep.Decisions {
			msg.Decisions = append(msg.Decisions, wire.DecisionMsg{Object: string(d.Object),
				Site: d.Site, Yield: d.Yield, Decision: d.Decision.String()})
			req.Accesses = append(req.Accesses, core.Access{Object: d.Object, Yield: d.Yield})
			if d.Decision == core.Bypass {
				bypassed[tableOf(d.Object)] = true
			}
		}
		requests = append(requests, req)
		frame.Reset()
		id = tr.begin(i, root, spEncode)
		n, err := wire.WriteFrame(&frame, wire.MsgResult, msg)
		tr.end(id)
		if err != nil {
			return out, nil, err
		}
		frameBytes += n
		id = tr.begin(i, root, spDecode)
		_, body, _, err := wire.ReadFrame(&frame)
		var back wire.ResultMsg
		if err == nil {
			err = wire.Decode(body, &back)
		}
		tr.end(id)
		if err != nil {
			return out, nil, err
		}

		// One sub-query to the owning node per table with a bypassed
		// object, as the proxy ships them: it reads the reply frame and
		// decodes it only if it is an error.
		if len(bypassed) > 0 {
			subs := federation.Subqueries(bound)
			for ti, t := range bound.Tables {
				if !bypassed[t.Name] {
					continue
				}
				id = tr.begin(i, root, spNode)
				_, err := wire.WriteFrame(nodes[t.Site], wire.MsgQuery, wire.QueryMsg{SQL: subs[ti].String()})
				var mt wire.MsgType
				if err == nil {
					mt, _, _, err = wire.ReadFrame(nodes[t.Site])
				}
				tr.end(id)
				if err == nil && mt != wire.MsgResult {
					err = fmt.Errorf("node %s answered %s to a sub-query", t.Site, mt)
				}
				if err != nil {
					return out, nil, err
				}
				legs++
			}
		}
	}
	twin.SetJournal(mgr) // the later passes over the twin are not spans
	stats1, err := admin[0].Stats()
	if err != nil {
		return out, nil, err
	}
	metrics, err := admin[0].Metrics()
	if err != nil {
		return out, nil, err
	}

	// Self-checks of the traced pass.
	out.Shards = f.med.ShardCount()
	acct, twinAcct := f.med.Accounting(), twin.Accounting()
	if c := identityCheck(delivered, acct); c != "" {
		out.Checks = append(out.Checks, c)
	}
	if mismatched > 0 || acct != twinAcct {
		out.Checks = append(out.Checks, fmt.Sprintf("twin mediator diverged from the real one on %d statements (WAN %d vs %d)", mismatched, twinAcct.WANBytes(), acct.WANBytes()))
	}
	if out.Failed > 0 {
		out.Checks = append(out.Checks, fmt.Sprintf("%d of %d statements failed", out.Failed, out.Attempted))
	}

	// Sums per span name, and the part of the root the steps explain.
	sum := map[string]float64{}
	var roots []time.Duration
	for _, sp := range tr.spans {
		sum[sp.Name] += sp.DurUS
		if sp.Parent < 0 {
			roots = append(roots, time.Duration(sp.DurUS*float64(time.Microsecond)))
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	n := float64(len(sqls))
	queryUS := sum[spQuery]
	if !s.Durable {
		queryUS -= sum[spJournal] // the real mediator journals only when durable
	}
	onPath := queryUS
	legUS := 0.0
	if s.Wire {
		legUS = sum[spNode]
		onPath += sum[spParse] + sum[spEncode] + sum[spDecode] + legUS
	}
	set := func(name string, v float64) {
		for _, m := range perLayerMetrics {
			if m.Name == name {
				out.Metrics[name] = stat{Value: v, Unit: m.Unit, Min: v, Max: v}
				return
			}
		}
		panic("bench: metric " + name + " is not in perLayerMetrics")
	}
	out.Metrics = map[string]stat{}
	set("sqlparse.parse_us", sum[spParse]/n)
	set("engine.bind_us", sum[spBind]/n)
	set("engine.execute_us", sum[spExecute]/n)
	set("engine.rows_scanned_per_op", float64(scanned)/n)
	set("federation.decompose_us", sum[spDecompose]/n)
	set("federation.decide_us", float64(decideUS)/n)
	set("federation.lock_wait_us", float64(lockWaitUS)/n)
	set("federation.query_us", queryUS/n)
	set("federation.decision_shards", float64(f.med.ShardCount()))
	set("core.byte_hit_ratio", acct.ByteHitRate())
	set("core.wan_reduction", float64(acct.DeliveredBytes()-acct.WANBytes())/float64(acct.DeliveredBytes()))
	set("core.loads", float64(acct.Loads))
	set("core.bypasses", float64(acct.Bypasses))
	set("core.hits", float64(acct.Hits))
	set("wire.frame_bytes_per_op", float64(frameBytes)/n)
	set("wire.node_query_us", ratio(sum[spNode], float64(legs)))
	set("wire.legs_per_query", float64(legs)/n)
	set("wire.pool_waits", float64(metrics.Snapshot.CounterTotal("wire.pool_waits")))
	set("wire.transport_tx_bytes_per_op", float64(stats1.TransportTx-stats0.TransportTx)/n)
	set("wire.transport_rx_bytes_per_op", float64(stats1.TransportRx-stats0.TransportRx)/n)
	set("wire.proxy_overhead_us", (sum[spClient]-queryUS-legUS)/n)
	set("persist.wal_append_us", ratio(sum[spJournal], float64(twinAcct.Accesses)))
	snap := twinReg.Snapshot()
	set("persist.wal_bytes_per_access", ratio(float64(snap.CounterTotal("persist.wal_bytes")), float64(snap.CounterTotal("persist.wal_records"))))
	set("workload.gen_us", us(in.genPer))
	set("runtime.alloc_kb_per_op", base.allocKB)
	set("runtime.allocs_per_op", base.allocs)
	set("runtime.gc_pause_ms", base.gcPauseMS)
	set("client.query_us", sum[spClient]/n)
	// coverage − 1 is the error of "end to end equals the sum of the
	// layers": below 0 is time on the real path no step reproduces
	// (syscalls, scheduling, flight recorder), above 0 is sub-query legs
	// the proxy overlaps and the steps run one after the other.
	set("trace.coverage", onPath/sum[spClient])
	set("trace.overhead_frac", (quantileMS(roots, 0.5)*1000-base.p50us)/base.p50us)

	// Recovery from the crash image of the twin's state directory.
	took, replayed, failed, err := recoverCopy(dirs["twin"], twinCfg, twinAcct)
	if err != nil {
		return out, nil, err
	}
	if failed != "" {
		out.Checks = append(out.Checks, failed)
	}
	set("persist.restart_ms", ms(took))
	set("persist.replay_records_per_ms", ratio(float64(replayed), ms(took)))

	if err := layerLoops(ctx, sz, f, twin, twinCfg, admin[0], sqls, requests, js.kept, dirs["sync"], set); err != nil {
		return out, nil, err
	}

	t0 := time.Now()
	mgrOpen = false
	if err := mgr.Close(); err != nil { // the final snapshot of a graceful stop
		return out, nil, err
	}
	set("persist.snapshot_ms", ms(time.Since(t0)))
	set("runtime.peak_rss_mb", peakRSSMiB())
	return out, tr.spans, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerLoops measures what a per-statement span cannot: codec cost at
// fixed frame sizes, the bare round trip, fsynced appends, the policy
// alone, observability's own cost, and lock wait under contention.
func layerLoops(ctx context.Context, sz sizes, f *fed, twin *federation.Mediator, twinCfg fedConfig,
	admin *wire.Client, sqls []string, requests []core.Request, records []federation.JournalRecord,
	syncDir string, set func(string, float64)) error {
	loops := sz.traced / 2

	// Frame codec at the two ends of the result-size range.
	for _, c := range []struct {
		name         string
		tuples, cols int
	}{{"small", 1, 3}, {"bulk", 64, 24}} {
		msg := syntheticResult(c.tuples, c.cols)
		var buf bytes.Buffer
		var enc, dec time.Duration
		for i := 0; i < loops; i++ {
			buf.Reset()
			t0 := time.Now()
			if _, err := wire.WriteFrame(&buf, wire.MsgResult, msg); err != nil {
				return err
			}
			t1 := time.Now()
			_, body, _, err := wire.ReadFrame(&buf)
			var back wire.ResultMsg
			if err == nil {
				err = wire.Decode(body, &back)
			}
			if err != nil {
				return err
			}
			enc += t1.Sub(t0)
			dec += time.Since(t1)
		}
		set("wire.encode_"+c.name+"_us", us(enc)/float64(loops))
		set("wire.decode_"+c.name+"_us", us(dec)/float64(loops))
	}

	// The frame-plus-syscall floor: an empty request and reply.
	t0 := time.Now()
	for i := 0; i < loops; i++ {
		if _, err := admin.Ping(); err != nil {
			return err
		}
	}
	set("wire.ping_rtt_us", us(time.Since(t0))/float64(loops))

	// WAL appends with an fsync each, on an idle mediator's manager.
	idle, err := newMediator(f.schema, f.db, twinCfg, nil, true)
	if err != nil {
		return err
	}
	syncMgr, err := openPersist(syncDir, idle, nil, true)
	if err != nil {
		return err
	}
	if len(records) > 64 {
		records = records[:64]
	}
	t0 = time.Now()
	for _, rec := range records {
		syncMgr.JournalAccess(rec)
	}
	set("persist.wal_append_sync_us", ratio(us(time.Since(t0)), float64(len(records))))
	if err := syncMgr.Close(); err != nil {
		return err
	}

	// The policy alone: the reference simulator over the same accesses.
	pol, err := core.NewPolicyByName(policyName, int64(twinCfg.cachePct*float64(f.schema.TotalBytes())), dataSeed)
	if err != nil {
		return err
	}
	sim := core.Simulator{Policy: pol, Objects: twin.Objects()}
	t0 = time.Now()
	res, err := sim.Run(requests)
	if err != nil {
		return err
	}
	set("core.policy_access_ns", ratio(float64(time.Since(t0)), float64(res.Acct.Accesses)))

	// Observability's cost: QueryStmt with ledger, shadows and registry
	// on, minus all off, the same statement back to back on both, the
	// order alternating.
	on, err := newMediator(f.schema, f.db, twinCfg, obs.NewRegistry(), false)
	if err != nil {
		return err
	}
	off, err := newMediator(f.schema, f.db, twinCfg, nil, true)
	if err != nil {
		return err
	}
	var diff time.Duration
	for i := 0; i < loops; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		stmt, err := sqlparse.Parse(sqls[i])
		if err != nil {
			return err
		}
		pair := [2]*federation.Mediator{on, off}
		var took [2]time.Duration
		for k := range pair {
			j := (k + i) % 2
			t0 := time.Now()
			if _, err := pair[j].QueryStmt(sqls[i], stmt); err != nil {
				return err
			}
			took[j] = time.Since(t0)
		}
		diff += took[0] - took[1]
	}
	set("obs.overhead_us", us(diff)/float64(loops))

	// Lock wait with every caller deciding at once, on the twin.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var waitUS, queries int64
	var firstErr error
	nc := callers()
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var w, q int64
			var err error
			for i := c; i < loops && err == nil && ctx.Err() == nil; i += nc {
				var rep *federation.QueryReport
				if rep, err = twin.Query(sqls[i]); err == nil {
					w += rep.LockWaitUS
					q++
				}
			}
			mu.Lock()
			waitUS, queries = waitUS+w, queries+q
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	set("federation.lock_wait_contended_us", ratio(float64(waitUS), float64(queries)))
	return ctx.Err()
}

// syntheticResult is a result of fixed shape, the same on every
// workload and seed, so codec numbers compare across all of them.
func syntheticResult(tuples, cols int) *wire.ResultMsg {
	msg := &wire.ResultMsg{Rows: int64(tuples) * 1000, Bytes: int64(tuples*cols) * 8000}
	for c := 0; c < cols; c++ {
		msg.Columns = append(msg.Columns, "photoobj.col"+strconv.Itoa(c))
		msg.Decisions = append(msg.Decisions, wire.DecisionMsg{
			Object: "edr/photoobj.col" + strconv.Itoa(c), Site: "photo.sdss.org",
			Yield: int64(tuples) * 8000, Decision: "bypass"})
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

// peakRSSMiB reads the process's peak resident set from the kernel; 0
// where /proc does not have it.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
