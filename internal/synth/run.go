package synth

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
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
	// MaxInflight caps outstanding queries; arrivals past the cap are
	// shed, never queued (0: DefaultMaxInflight).
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

// Report is a completed run's accounting. The open-loop identity
// holds exactly: TargetOps = Dispatched + Shed + Canceled, and
// Dispatched = Completed + Errors + Abandoned.
type Report struct {
	Scenario string `json:"scenario"`
	Release  string `json:"release"`
	Seed     int64  `json:"seed"`
	Arrival  string `json:"arrival"`

	// DurationSeconds is the scheduled window (last slot end);
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

// Run executes the scenario open-loop against cfg.Addr: the arrival
// schedule and every statement are materialized up front, then a
// dispatcher fires each operation at its appointed offset. Arrivals
// never wait on completions — past the in-flight cap they are shed
// and counted, so a saturated server shows up as achieved < target
// plus a nonzero shed counter, not as a silently stretched run.
//
// Run returns an error only when the run cannot proceed at all (bad
// scenario, context canceled before dispatch). Per-query failures are
// data, reported in Report.Errors — a chaos run that sheds and
// degrades gracefully still exits cleanly.
func Run(ctx context.Context, sc *Scenario, cfg RunConfig) (*Report, error) {
	arrivals, err := Schedule(sc)
	if err != nil {
		return nil, err
	}
	ops, err := Ops(sc, arrivals)
	if err != nil {
		return nil, err
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
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
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}

	duration := sc.TotalDuration()
	rep := &Report{
		Scenario:        sc.Name,
		Release:         sc.Release,
		Seed:            sc.Seed,
		Arrival:         sc.Arrival,
		DurationSeconds: duration.Seconds(),
		TargetOps:       len(ops),
	}
	if duration > 0 {
		rep.TargetRPS = float64(len(ops)) / duration.Seconds()
	}
	if len(ops) == 0 {
		return rep, nil
	}

	var before obs.Snapshot
	scraped := false
	if !cfg.SkipScrape {
		if s, err := scrape(cfg); err == nil {
			before = s
			scraped = true
		} else {
			logf("synth: proxy metrics scrape disabled: %v", err)
		}
	}

	st := &runState{
		cfg:      cfg,
		sloUS:    cfg.SLO.Microseconds(),
		idle:     make(chan *wire.Client, cfg.MaxInflight),
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

	logf("synth: %s: %d ops over %v (target %.1f rps, cap %d in flight)",
		sc.Name, len(ops), duration.Round(time.Millisecond), rep.TargetRPS, cfg.MaxInflight)

	// The dispatch clock. Arrivals fire at start+op.At regardless of
	// how the previous ones fared.
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	var wg sync.WaitGroup
dispatch:
	for i := range ops {
		op := &ops[i]
		intended := start.Add(op.At)
		if wait := time.Until(intended); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				if !timer.Stop() {
					<-timer.C
				}
				rep.Canceled = int64(len(ops) - i)
				break dispatch
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			rep.Canceled = int64(len(ops) - i)
			break dispatch
		}
		// Open loop: a full window sheds instead of queueing.
		if !st.tryAcquire(cfg.MaxInflight) {
			st.shed.Add(1)
			st.shedCtr.Inc()
			continue
		}
		st.dispatched.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.exec(op, intended)
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
		logf("synth: drain timeout: %d queries still in flight", st.cur.Load())
	}

	rep.WallSeconds = time.Since(start).Seconds()
	rep.Dispatched = st.dispatched.Load()
	rep.Completed = st.completed.Load()
	rep.Errors = st.errors.Load()
	rep.Shed = st.shed.Load()
	rep.Degraded = st.degraded.Load()
	rep.Abandoned = rep.Dispatched - rep.Completed - rep.Errors
	rep.BytesDelivered = st.bytes.Load()
	window := duration.Seconds()
	if w := dispatchEnd.Sub(start).Seconds(); w > window {
		window = w
	}
	if window > 0 {
		rep.AchievedRPS = float64(rep.Completed) / window
	}

	lat := st.latency.Snap()
	rep.Latency = LatencySummary{
		Count:    lat.Count,
		MeanUS:   lat.Mean(),
		P50US:    lat.Quantile(0.50),
		P90US:    lat.Quantile(0.90),
		P99US:    lat.Quantile(0.99),
		P999US:   lat.Quantile(0.999),
		MaxUS:    st.maxUS.Load(),
		LagP99US: st.lag.Snap().Quantile(0.99),
		LagMaxUS: st.lagMaxUS.Load(),
	}
	rep.SLO = SLOReport{ThresholdUS: st.sloUS, Met: st.sloMet.Load(), Attainment: 1}
	if rep.Completed > 0 {
		rep.SLO.Attainment = float64(rep.SLO.Met) / float64(rep.Completed)
	}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name != "synth.class_latency_us" || h.Count == 0 {
			continue
		}
		rep.Classes = append(rep.Classes, ClassSummary{
			Class: h.Label,
			Count: h.Count,
			P50US: h.Quantile(0.50),
			P99US: h.Quantile(0.99),
		})
	}

	if scraped {
		if after, err := scrape(cfg); err == nil {
			rep.Proxy = &ProxyDelta{
				Queries:         after.CounterValue("federation.queries", "") - before.CounterValue("federation.queries", ""),
				DegradedQueries: after.CounterValue("core.degraded_queries", "") - before.CounterValue("core.degraded_queries", ""),
				BypassBytes:     after.CounterValue("core.bypass_bytes", "") - before.CounterValue("core.bypass_bytes", ""),
				FetchBytes:      after.CounterValue("core.fetch_bytes", "") - before.CounterValue("core.fetch_bytes", ""),
				CacheBytes:      after.CounterValue("core.cache_bytes", "") - before.CounterValue("core.cache_bytes", ""),
				YieldBytes:      after.CounterValue("core.yield_bytes", "") - before.CounterValue("core.yield_bytes", ""),
			}
			rep.Tail = tailDelta(before, after)
		}
	}
	return rep, nil
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

	cur        atomic.Int64 // outstanding queries
	dispatched atomic.Int64
	completed  atomic.Int64
	errors     atomic.Int64
	shed       atomic.Int64
	degraded   atomic.Int64
	bytes      atomic.Int64
	sloMet     atomic.Int64
	maxUS      atomic.Int64
	lagMaxUS   atomic.Int64

	idle chan *wire.Client

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

// exec runs one operation, due at intended, on a pooled connection.
// Connection failures and query errors count as Errors; the conn is
// discarded (its stream state is unknown) and a successor dials fresh.
func (st *runState) exec(op *Op, intended time.Time) {
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
			st.errors.Add(1)
			st.errCtr.Inc()
			return
		}
		cl = wire.NewClient(conn)
	}
	// Mint a correlation id per operation: the proxy propagates it to
	// node legs and stamps it on flight-recorder exemplars, so a tail
	// event in this run can be joined across daemons afterwards
	// (`by federation` merges by trace id).
	res, err := cl.QueryTraced(op.SQL, obs.NewID())
	latUS := time.Since(intended).Microseconds()
	if err != nil {
		st.errors.Add(1)
		st.errCtr.Inc()
		cl.Close()
		return
	}
	st.completed.Add(1)
	st.doneCtr.Inc()
	st.latency.Observe(latUS)
	st.byClass.Get(op.Class).Observe(latUS)
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

// scrape fetches the proxy's metrics snapshot on a throwaway conn.
func scrape(cfg RunConfig) (obs.Snapshot, error) {
	conn, err := cfg.Dialer(cfg.Addr)
	if err != nil {
		return obs.Snapshot{}, err
	}
	cl := wire.NewClient(conn)
	defer cl.Close()
	m, err := cl.Scrape(wire.ScrapeMsg{})
	if err != nil {
		return obs.Snapshot{}, err
	}
	return m.Snapshot, nil
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
