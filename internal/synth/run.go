package synth

import (
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/trace"
	"bypassyield/internal/wire"
)

// DefaultMaxInflight bounds concurrently outstanding queries (and the
// client connection pool) when the config leaves it zero.
const DefaultMaxInflight = 64

// DefaultDrainTimeout bounds the post-schedule wait for in-flight
// queries to land.
const DefaultDrainTimeout = 30 * time.Second

// DefaultSLO is the latency objective reported when none is set.
const DefaultSLO = 500 * time.Millisecond

// LatencyBuckets is the harness's HDR-style log-bucketed layout:
// ×1.05 steps from 10µs to ~14.7s. A quantile reads as its bucket's
// upper bound, so every percentile is at most 5% above the true value
// anywhere in the range. Whole microseconds repeat below 20µs; each
// bound is kept once.
func LatencyBuckets() []int64 {
	steps := obs.ExpBuckets(10, 1.05, 292)
	bounds := steps[:1]
	for _, b := range steps[1:] {
		if b != bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

// RunConfig parameterizes a load run against one proxy address.
type RunConfig struct {
	// Addr is the byproxyd client address.
	Addr string
	// MaxInflight caps an open-loop replay's outstanding queries;
	// arrivals past the cap are shed, never queued (0: DefaultMaxInflight).
	MaxInflight int
	// SLO is the latency objective to report attainment against
	// (0: DefaultSLO).
	SLO time.Duration
	// DialTimeout bounds each connection attempt (0: wire default).
	DialTimeout time.Duration
	// DrainTimeout bounds the post-schedule wait for stragglers
	// (0: DefaultDrainTimeout).
	DrainTimeout time.Duration
	// Dialer overrides connection establishment (tests, chaos
	// wrapping). Nil dials TCP.
	Dialer func(addr string) (net.Conn, error)
	// SkipScrape disables the proxy metrics scrape (for servers that
	// speak only MsgQuery, like test stubs).
	SkipScrape bool
	// Obs optionally receives the harness's own metrics (latency
	// histograms, shed/error counters); nil keeps a private registry.
	Obs *obs.Registry
	// Logf reports run progress; nil is silent.
	Logf func(format string, args ...any)
}

// LatencySummary condenses one latency histogram. A latency runs from
// an operation's intended time (dispatch start + At) to its completion,
// so it includes how late the harness started it and any fresh dial;
// LagP99US and LagMaxUS are that start's lateness alone (the dispatch
// lag), which shows a harness that fell behind as such.
type LatencySummary struct {
	Count    int64   `json:"count"`
	MeanUS   float64 `json:"mean_us"`
	P50US    int64   `json:"p50_us"`
	P90US    int64   `json:"p90_us"`
	P99US    int64   `json:"p99_us"`
	P999US   int64   `json:"p999_us"`
	MaxUS    int64   `json:"max_us"`
	LagP99US int64   `json:"dispatch_lag_p99_us"`
	LagMaxUS int64   `json:"dispatch_lag_max_us"`
}

// ClassSummary is per-query-class latency.
type ClassSummary struct {
	Class string `json:"class"`
	Count int64  `json:"count"`
	P50US int64  `json:"p50_us"`
	P99US int64  `json:"p99_us"`
}

// SLOReport is attainment against the configured objective.
type SLOReport struct {
	ThresholdUS int64 `json:"threshold_us"`
	Met         int64 `json:"met"`
	// Attainment is met / completed (1 when nothing completed).
	Attainment float64 `json:"attainment"`
}

// TailReport is the proxy flight recorder's view of the run window:
// how many queries it captured by outcome and why the slow ones were
// slow, scraped as before/after counter deltas.
type TailReport struct {
	Slow     int64 `json:"slow"`
	Errors   int64 `json:"errors"`
	Degraded int64 `json:"degraded"`
	Normal   int64 `json:"normal"`
	// Causes is the critical-path attribution, largest TotalUS first.
	Causes []flightrec.TailCause `json:"causes,omitempty"`
}

// ProxyDelta is the proxy-side byte flow over the run window, by
// decision class, scraped from the proxy's metrics endpoint before
// and after the schedule.
type ProxyDelta struct {
	Queries         int64 `json:"queries"`
	DegradedQueries int64 `json:"degraded_queries"`
	BypassBytes     int64 `json:"bypass_bytes"`
	FetchBytes      int64 `json:"fetch_bytes"`
	CacheBytes      int64 `json:"cache_bytes"`
	YieldBytes      int64 `json:"yield_bytes"`
}

// Report is a completed run's accounting. The identities hold exactly,
// open loop and closed: TargetOps = Dispatched + Shed + Canceled, and
// Dispatched = Completed + Errors + Abandoned.
type Report struct {
	Scenario string `json:"scenario"`
	Release  string `json:"release"`
	Seed     int64  `json:"seed"`
	Arrival  string `json:"arrival"`

	// DurationSeconds is the scheduled window (last slot end or offset);
	// WallSeconds is dispatch start to last completion or drain cutoff.
	DurationSeconds float64 `json:"duration_seconds"`
	WallSeconds     float64 `json:"wall_seconds"`

	TargetOps   int     `json:"target_ops"`
	TargetRPS   float64 `json:"target_rps"`
	Dispatched  int64   `json:"dispatched"`
	Completed   int64   `json:"completed"`
	Errors      int64   `json:"errors"`
	Shed        int64   `json:"shed"`
	Canceled    int64   `json:"canceled,omitempty"`
	Abandoned   int64   `json:"abandoned,omitempty"`
	Degraded    int64   `json:"degraded"`
	AchievedRPS float64 `json:"achieved_rps"`

	BytesDelivered int64 `json:"bytes_delivered"`

	Latency LatencySummary `json:"latency"`
	SLO     SLOReport      `json:"slo"`
	Classes []ClassSummary `json:"classes,omitempty"`
	Proxy   *ProxyDelta    `json:"proxy,omitempty"`
	Tail    *TailReport    `json:"tail,omitempty"`
}

// Run drives the scenario against cfg.Addr: Schedule, then Ops, then
// Replay over the scenario's scheduled window. It fails only on a
// scenario it cannot expand: per-query failures are data, reported in
// Report.Errors, so a chaos run that sheds and degrades exits cleanly.
func Run(ctx context.Context, sc *Scenario, cfg RunConfig) (*Report, error) {
	arrivals, err := Schedule(sc)
	if err != nil {
		return nil, err
	}
	recs, err := Ops(sc, arrivals)
	if err != nil {
		return nil, err
	}
	rep := replay(ctx, recs, sc.TotalDuration(), cfg)
	rep.Scenario, rep.Release, rep.Seed, rep.Arrival = sc.Name, sc.Release, sc.Seed, sc.Arrival
	return rep, nil
}

// Replay sends recs to cfg.Addr and reports how they fared, over a
// window that ends at the last arrival offset. If any record carries an
// offset, Replay runs open loop: each record fires at its offset from
// the dispatch start, never waiting on completions, and one that finds
// MaxInflight outstanding is shed and counted, never queued. Otherwise
// it runs closed loop: each record is sent once the previous one has
// returned, its intended time its send time. A failed connection is
// closed, and the next record dials afresh.
func Replay(ctx context.Context, recs []trace.Record, cfg RunConfig) *Report {
	return replay(ctx, recs, 0, cfg)
}

// replay is Replay over a scheduled window that ends at least window
// after the start.
func replay(ctx context.Context, recs []trace.Record, window time.Duration, cfg RunConfig) *Report {
	if len(recs) > 0 {
		window = max(window, recs[len(recs)-1].At)
	}
	open := slices.ContainsFunc(recs, func(r trace.Record) bool { return r.At > 0 })
	slots := 1 // closed loop: the record in flight
	if open {
		slots = cfg.MaxInflight
		if slots <= 0 {
			slots = DefaultMaxInflight
		}
	}
	if cfg.SLO <= 0 {
		cfg.SLO = DefaultSLO
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = wire.DefaultDialTimeout
	}
	if cfg.Dialer == nil {
		cfg.Dialer = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, cfg.DialTimeout)
		}
	}
	var logMu sync.Mutex // exec logs from many goroutines
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		if cfg.Logf != nil {
			cfg.Logf(format, args...)
		}
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}

	rep := &Report{DurationSeconds: window.Seconds(), TargetOps: len(recs)}
	if window > 0 {
		rep.TargetRPS = float64(len(recs)) / window.Seconds()
	}
	if len(recs) == 0 {
		return rep
	}

	var before *wire.ScrapeResultMsg
	if !cfg.SkipScrape {
		var err error
		if before, err = scrape(cfg); err != nil {
			logf("proxy metrics scrape disabled: %v", err)
		}
	}

	st := &runState{
		cfg:      cfg,
		logf:     logf,
		sloUS:    cfg.SLO.Microseconds(),
		idle:     make(chan *wire.Client, slots),
		latency:  reg.Histogram("synth.latency_us", LatencyBuckets()),
		lag:      reg.Histogram("synth.dispatch_lag_us", LatencyBuckets()),
		byClass:  reg.HistogramFamily("synth.class_latency_us", LatencyBuckets()),
		shedCtr:  reg.Counter("synth.shed"),
		errCtr:   reg.Counter("synth.errors"),
		degCtr:   reg.Counter("synth.degraded"),
		doneCtr:  reg.Counter("synth.completed"),
		inflight: reg.Gauge("synth.inflight"),
	}
	defer st.closeIdle()

	if open {
		logf("%d ops over %v (target %.1f rps, cap %d in flight)",
			len(recs), window.Round(time.Millisecond), rep.TargetRPS, slots)
	}

	// The dispatch clock. Open loop, each record fires at start+rec.At
	// however the previous ones fared; closed loop, once the previous
	// one has returned.
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	var wg sync.WaitGroup
	for i := range recs {
		rec := &recs[i]
		intended := start.Add(rec.At)
		if !open {
			intended = time.Now()
		}
		if wait := time.Until(intended); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
			case <-timer.C:
			}
		}
		if ctx.Err() != nil {
			rep.Canceled = int64(len(recs) - i)
			break
		}
		// Open loop: a full window sheds instead of queueing. Closed
		// loop, the one slot is free again once exec has returned.
		if !st.tryAcquire(slots) {
			rep.Shed++
			st.shedCtr.Inc()
			continue
		}
		rep.Dispatched++
		if !open {
			st.exec(rec, intended)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.exec(rec, intended)
		}()
	}
	dispatchEnd := time.Now()

	// Drain stragglers, bounded: an open-loop run must terminate even
	// if the server wedged.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(cfg.DrainTimeout):
		logf("drain timeout: %d queries still in flight", st.cur.Load())
	}

	rep.WallSeconds = time.Since(start).Seconds()
	rep.Completed = st.completed.Load()
	rep.Errors = st.errors.Load()
	rep.Degraded = st.degraded.Load()
	rep.Abandoned = rep.Dispatched - rep.Completed - rep.Errors
	rep.BytesDelivered = st.bytes.Load()
	if w := dispatchEnd.Sub(start); w > window {
		window = w
	}
	if window > 0 {
		rep.AchievedRPS = float64(rep.Completed) / window.Seconds()
	}

	rep.Latency, rep.Classes = st.summary(reg)
	rep.SLO = SLOReport{ThresholdUS: st.sloUS, Met: st.sloMet.Load(), Attainment: 1}
	if rep.Completed > 0 {
		rep.SLO.Attainment = float64(rep.SLO.Met) / float64(rep.Completed)
	}

	if before != nil {
		if after, err := scrape(cfg); err == nil {
			b, a := before.Snapshot, after.Snapshot
			rep.Proxy = &ProxyDelta{
				Queries:         a.CounterValue("federation.queries", "") - b.CounterValue("federation.queries", ""),
				DegradedQueries: a.CounterValue("core.degraded_queries", "") - b.CounterValue("core.degraded_queries", ""),
				BypassBytes:     a.CounterValue("core.bypass_bytes", "") - b.CounterValue("core.bypass_bytes", ""),
				FetchBytes:      a.CounterValue("core.fetch_bytes", "") - b.CounterValue("core.fetch_bytes", ""),
				CacheBytes:      a.CounterValue("core.cache_bytes", "") - b.CounterValue("core.cache_bytes", ""),
				YieldBytes:      a.CounterValue("core.yield_bytes", "") - b.CounterValue("core.yield_bytes", ""),
			}
			rep.Tail = tailDelta(b, a)
		}
	}
	return rep
}

// summary condenses the run's latency histograms, whose registry is
// reg. A quantile is its bucket's upper bound, which may lie above
// every observation, so each is capped at the exact maximum it is
// reported beside: the latency quantiles and each class's at MaxUS, the
// dispatch lag's at LagMaxUS.
func (st *runState) summary(reg *obs.Registry) (LatencySummary, []ClassSummary) {
	maxUS, lagMaxUS := st.maxUS.Load(), st.lagMaxUS.Load()
	lat := st.latency.Snap()
	sum := LatencySummary{
		Count:    lat.Count,
		MeanUS:   lat.Mean(),
		P50US:    min(lat.Quantile(0.50), maxUS),
		P90US:    min(lat.Quantile(0.90), maxUS),
		P99US:    min(lat.Quantile(0.99), maxUS),
		P999US:   min(lat.Quantile(0.999), maxUS),
		MaxUS:    maxUS,
		LagP99US: min(st.lag.Snap().Quantile(0.99), lagMaxUS),
		LagMaxUS: lagMaxUS,
	}
	var classes []ClassSummary
	for _, h := range reg.Snapshot().Histograms {
		if h.Name != "synth.class_latency_us" || h.Count == 0 {
			continue
		}
		classes = append(classes, ClassSummary{
			Class: h.Label,
			Count: h.Count,
			P50US: min(h.Quantile(0.50), maxUS),
			P99US: min(h.Quantile(0.99), maxUS),
		})
	}
	return sum, classes
}

// tailDelta condenses the proxy flight recorder's counters over the
// run window. Nil when the window captured nothing (recorder absent
// or all queries healthy and unsampled).
func tailDelta(before, after obs.Snapshot) *TailReport {
	t := &TailReport{
		Slow:     after.CounterValue("obs.exemplars", "slow") - before.CounterValue("obs.exemplars", "slow"),
		Errors:   after.CounterValue("obs.exemplars", "error") - before.CounterValue("obs.exemplars", "error"),
		Degraded: after.CounterValue("obs.exemplars", "degraded") - before.CounterValue("obs.exemplars", "degraded"),
		Normal:   after.CounterValue("obs.exemplars", "normal") - before.CounterValue("obs.exemplars", "normal"),
	}
	t.Causes = flightrec.TailCauses(after, before)
	if t.Slow+t.Errors+t.Degraded+t.Normal == 0 && len(t.Causes) == 0 {
		return nil
	}
	return t
}

// runState is the shared mutable state of one run.
type runState struct {
	cfg   RunConfig
	sloUS int64

	cur       atomic.Int64 // outstanding queries
	completed atomic.Int64
	errors    atomic.Int64
	degraded  atomic.Int64
	bytes     atomic.Int64
	sloMet    atomic.Int64
	maxUS     atomic.Int64
	lagMaxUS  atomic.Int64

	idle chan *wire.Client
	logf func(format string, args ...any)

	latency  *obs.Histogram
	lag      *obs.Histogram
	byClass  *obs.HistogramFamily
	shedCtr  *obs.Counter
	errCtr   *obs.Counter
	degCtr   *obs.Counter
	doneCtr  *obs.Counter
	inflight *obs.Gauge
}

// tryAcquire claims an in-flight slot without blocking.
func (st *runState) tryAcquire(cap int) bool {
	for {
		n := st.cur.Load()
		if n >= int64(cap) {
			return false
		}
		if st.cur.CompareAndSwap(n, n+1) {
			st.inflight.Set(n + 1)
			return true
		}
	}
}

func (st *runState) release() {
	st.inflight.Set(st.cur.Add(-1))
}

// exec sends one record, due at intended, on a pooled connection.
// Connection failures and query errors count as Errors, the first
// five logged; the conn is discarded (its stream state is unknown) and
// a successor dials fresh.
func (st *runState) exec(rec *trace.Record, intended time.Time) {
	defer st.release()
	lagUS := time.Since(intended).Microseconds()
	st.lag.Observe(lagUS)
	storeMax(&st.lagMaxUS, lagUS)
	var cl *wire.Client
	select {
	case cl = <-st.idle:
	default:
		conn, err := st.cfg.Dialer(st.cfg.Addr)
		if err != nil {
			st.fail(rec, err)
			return
		}
		cl = wire.NewClient(conn)
	}
	// Mint a correlation id per record: the proxy propagates it to
	// node legs and stamps it on flight-recorder exemplars and ledger
	// records, so a tail event in this run can be joined across daemons
	// afterwards (`by federation` merges by trace id).
	res, err := cl.QueryTraced(rec.SQL, obs.NewID())
	latUS := time.Since(intended).Microseconds()
	if err != nil {
		st.fail(rec, err)
		cl.Close()
		return
	}
	st.completed.Add(1)
	st.doneCtr.Inc()
	st.latency.Observe(latUS)
	st.byClass.Get(rec.Class).Observe(latUS)
	if latUS <= st.sloUS {
		st.sloMet.Add(1)
	}
	storeMax(&st.maxUS, latUS)
	if res.Partial || len(res.TransportErrors) > 0 {
		st.degraded.Add(1)
		st.degCtr.Inc()
	}
	st.bytes.Add(res.Bytes)
	select {
	case st.idle <- cl:
	default:
		cl.Close()
	}
}

// fail counts rec as an error and logs the first five.
func (st *runState) fail(rec *trace.Record, err error) {
	st.errCtr.Inc()
	if st.errors.Add(1) <= 5 {
		st.logf("query %d failed: %v", rec.Seq, err)
	}
}

// storeMax raises m to v.
func storeMax(m *atomic.Int64, v int64) {
	for {
		old := m.Load()
		if v <= old || m.CompareAndSwap(old, v) {
			return
		}
	}
}

func (st *runState) closeIdle() {
	for {
		select {
		case cl := <-st.idle:
			cl.Close()
		default:
			return
		}
	}
}

// scrape fetches the proxy's metrics on a throwaway conn.
func scrape(cfg RunConfig) (*wire.ScrapeResultMsg, error) {
	conn, err := cfg.Dialer(cfg.Addr)
	if err != nil {
		return nil, err
	}
	cl := wire.NewClient(conn)
	defer cl.Close()
	return cl.Scrape(wire.ScrapeMsg{})
}

// WriteText renders the report as a human table.
func (r *Report) WriteText(w io.Writer) error {
	ms := func(us int64) float64 { return float64(us) / 1e3 }
	fmt.Fprintf(w, "scenario %s (release %s, seed %d, %s arrivals)\n",
		r.Scenario, r.Release, r.Seed, r.Arrival)
	fmt.Fprintf(w, "  window      %8.1fs scheduled, %.1fs wall\n", r.DurationSeconds, r.WallSeconds)
	fmt.Fprintf(w, "  rps         %8.1f target  → %8.1f achieved\n", r.TargetRPS, r.AchievedRPS)
	fmt.Fprintf(w, "  ops         %8d target: %d completed, %d errors, %d shed",
		r.TargetOps, r.Completed, r.Errors, r.Shed)
	if r.Canceled > 0 {
		fmt.Fprintf(w, ", %d canceled", r.Canceled)
	}
	if r.Abandoned > 0 {
		fmt.Fprintf(w, ", %d abandoned", r.Abandoned)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  degraded    %8d partial results\n", r.Degraded)
	fmt.Fprintf(w, "  delivered   %11.3f MB\n", float64(r.BytesDelivered)/1e6)
	fmt.Fprintf(w, "  latency     p50 %.2fms  p90 %.2fms  p99 %.2fms  p999 %.2fms  max %.2fms\n",
		ms(r.Latency.P50US), ms(r.Latency.P90US), ms(r.Latency.P99US),
		ms(r.Latency.P999US), ms(r.Latency.MaxUS))
	fmt.Fprintf(w, "  dispatch    lag p99 %.2fms  max %.2fms\n",
		ms(r.Latency.LagP99US), ms(r.Latency.LagMaxUS))
	fmt.Fprintf(w, "  slo         %.0fms: %.2f%% attained (%d/%d)\n",
		ms(r.SLO.ThresholdUS), r.SLO.Attainment*100, r.SLO.Met, r.Completed)
	if len(r.Classes) > 0 {
		fmt.Fprintln(w, "  per class:")
		for _, c := range r.Classes {
			fmt.Fprintf(w, "    %-10s %7d ops  p50 %8.2fms  p99 %8.2fms\n",
				c.Class, c.Count, ms(c.P50US), ms(c.P99US))
		}
	}
	if r.Proxy != nil {
		fmt.Fprintf(w, "  proxy       %d queries (%d degraded)\n", r.Proxy.Queries, r.Proxy.DegradedQueries)
		fmt.Fprintf(w, "  proxy bytes bypass %.3f MB, fetch %.3f MB, cache-hit %.3f MB, yield %.3f MB\n",
			float64(r.Proxy.BypassBytes)/1e6, float64(r.Proxy.FetchBytes)/1e6,
			float64(r.Proxy.CacheBytes)/1e6, float64(r.Proxy.YieldBytes)/1e6)
	}
	if r.Tail != nil {
		fmt.Fprintf(w, "  tail        %d slow, %d error, %d degraded exemplars (%d normal samples)\n",
			r.Tail.Slow, r.Tail.Errors, r.Tail.Degraded, r.Tail.Normal)
		for _, c := range r.Tail.Causes {
			fmt.Fprintf(w, "    %-26s %6d dominant  %10.3fms attributed\n",
				c.Cause, c.Dominant, float64(c.TotalUS)/1e3)
		}
	}
	return nil
}
