package core

import (
	"sync/atomic"
	"time"

	"bypassyield/internal/obs"
)

// Telemetry publishes the cache core's activity into an obs.Registry:
// decisions per policy per verdict, the Figure-1 byte flows, eviction
// and episode churn. The byte counters apply exactly the charging
// rules of Account, so a registry snapshot reconciles with the
// mediator's Accounting (D_A = D_S + D_C) — the end-to-end metrics
// test asserts this.
//
// Metric names:
//
//	core.decisions            counter family, label "<policy>/<verdict>"
//	core.evictions            counter family, label "<policy>"
//	core.accesses             counter
//	core.bypass_bytes         counter (D_S, cost-scaled)
//	core.fetch_bytes          counter (D_L)
//	core.cache_bytes          counter (D_C)
//	core.yield_bytes          counter (raw yield)
//	core.episodes_opened      counter
//	core.episodes_closed      counter
//
// Degraded-mode accounting (site breakers open, see the federation
// mediator):
//
//	core.forced_decisions     counter family, label "<site>": accesses
//	                          forced to serve-from-cache because the
//	                          owning site was unavailable
//	core.failed_legs          counter family, label "<site>": accesses
//	                          dropped entirely (site down, not cached)
//	core.degraded_queries     counter: queries with ≥ 1 forced or
//	                          failed access
//	core.stale_served_bytes   counter: yield served from cache with no
//	                          freshness guarantee
//
// Sliding-window rates (the operational analogue of the paper's rate
// profiles, eq. 3 — recent flow intensity rather than lifetime sums):
//
//	core.bypass_bytes_rate    D_S bytes/s over the recent window
//	core.fetch_bytes_rate     D_L bytes/s
//	core.cache_bytes_rate     D_C bytes/s
//	core.query_rate           mediated queries/s
//
// Decision latency (the cost of deciding one access):
//
//	core.decide_seconds       histogram; one observation per access the
//	                          policy decided, each the mean step of its
//	                          query's decide loop (policy, flows, shadows,
//	                          ledger slot, journal append), which is timed
//	                          once per query, end to end. NANOSECONDS,
//	                          with explicit sub-microsecond buckets —
//	                          the name keeps the Prometheus convention
//	                          while the unit stays integer-friendly
//	core.decide_wait_us       histogram: time queries spend blocked on
//	                          the mediation decision lock (µs) — the
//	                          decision plane's queueing delay, which
//	                          tail attribution separates from WAN time
//
// Pipeline concurrency (the proxy's decide-then-execute split —
// decisions stay sequential under the mediation lock, WAN legs and
// whole queries overlap):
//
//	core.query_concurrency    gauge: client queries currently inside
//	                          the proxy pipeline (mediation + legs)
//	core.legs_inflight        gauge: WAN legs (object fetches and
//	                          bypass sub-queries) currently executing
//
// Counterfactual accounting (fed by ShadowSet, see shadow.go):
//
//	core.shadow_wan_bytes             counter family, label = baseline
//	core.optbound_bytes               counter: ski-rental lower bound
//	core.bytes_saved_vs_bypass        gauge: shadow always-bypass WAN − realized WAN
//	core.bytes_saved_vs_lruk          gauge: shadow LRU-K WAN − realized WAN
//	core.competitive_ratio_milli      gauge: 1000 · realized WAN / bound (lifetime)
//	core.competitive_ratio_window_milli  gauge: same ratio over the recent rate window
//	core.wan_bytes_rate               realized WAN bytes/s (D_S + D_L)
//	core.optbound_bytes_rate          bound bytes/s, the window ratio's denominator
//
// A Telemetry built over a nil registry — or a nil *Telemetry — is a
// no-op, so policies and simulators thread it unconditionally.
type Telemetry struct {
	decisions *obs.CounterFamily
	evictions *obs.CounterFamily

	accesses    *obs.Counter
	bypassBytes *obs.Counter
	fetchBytes  *obs.Counter
	cacheBytes  *obs.Counter
	yieldBytes  *obs.Counter

	episodesOpened *obs.Counter
	episodesClosed *obs.Counter

	forcedDecisions *obs.CounterFamily
	failedLegs      *obs.CounterFamily
	degradedQueries *obs.Counter
	staleBytes      *obs.Counter

	bypassRate *obs.Rate
	fetchRate  *obs.Rate
	cacheRate  *obs.Rate
	queryRate  *obs.Rate

	decide     *obs.Histogram
	decideWait *obs.Histogram

	queryConcurrency *obs.Gauge
	legsInflight     *obs.Gauge

	shadowWAN       *obs.CounterFamily
	optBoundBytes   *obs.Counter
	savedVsBypass   *obs.Gauge
	savedVsLRUK     *obs.Gauge
	compRatio       *obs.Gauge
	compRatioWindow *obs.Gauge
	wanRate         *obs.Rate
	optRate         *obs.Rate

	// Accumulators behind the competitive-ratio gauge: shadow sets
	// contribute deltas, the gauge reads the sum.
	compWAN   atomic.Int64
	compBound atomic.Int64
}

// DecideBuckets are the explicit core.decide_seconds bucket bounds in
// nanoseconds: policy decisions are map lookups plus at worst a victim
// scan, so the resolution concentrates between 100ns and 100µs with a
// long tail to 10ms for pathological victim sets.
func DecideBuckets() []int64 {
	return []int64{100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000, 10_000_000}
}

// TelemetrySetter is implemented by policies that publish internal
// churn (episode open/close, ...) through a Telemetry. The mediator
// and simulator attach their telemetry to any policy implementing it.
type TelemetrySetter interface {
	SetTelemetry(*Telemetry)
}

// NewTelemetry registers the core metric families in r. A nil r
// yields a nil Telemetry, whose methods are free no-ops.
func NewTelemetry(r *obs.Registry) *Telemetry {
	if r == nil {
		return nil
	}
	return &Telemetry{
		decisions:      r.CounterFamily("core.decisions"),
		evictions:      r.CounterFamily("core.evictions"),
		accesses:       r.Counter("core.accesses"),
		bypassBytes:    r.Counter("core.bypass_bytes"),
		fetchBytes:     r.Counter("core.fetch_bytes"),
		cacheBytes:     r.Counter("core.cache_bytes"),
		yieldBytes:     r.Counter("core.yield_bytes"),
		episodesOpened: r.Counter("core.episodes_opened"),
		episodesClosed: r.Counter("core.episodes_closed"),

		forcedDecisions: r.CounterFamily("core.forced_decisions"),
		failedLegs:      r.CounterFamily("core.failed_legs"),
		degradedQueries: r.Counter("core.degraded_queries"),
		staleBytes:      r.Counter("core.stale_served_bytes"),
		bypassRate:      r.Rate("core.bypass_bytes_rate"),
		fetchRate:       r.Rate("core.fetch_bytes_rate"),
		cacheRate:       r.Rate("core.cache_bytes_rate"),
		queryRate:       r.Rate("core.query_rate"),

		decide:     r.Histogram("core.decide_seconds", DecideBuckets()),
		decideWait: r.Histogram("core.decide_wait_us", obs.DefaultLatencyBuckets()),

		queryConcurrency: r.Gauge("core.query_concurrency"),
		legsInflight:     r.Gauge("core.legs_inflight"),

		shadowWAN:       r.CounterFamily("core.shadow_wan_bytes"),
		optBoundBytes:   r.Counter("core.optbound_bytes"),
		savedVsBypass:   r.Gauge("core.bytes_saved_vs_bypass"),
		savedVsLRUK:     r.Gauge("core.bytes_saved_vs_lruk"),
		compRatio:       r.Gauge("core.competitive_ratio_milli"),
		compRatioWindow: r.Gauge("core.competitive_ratio_window_milli"),
		wanRate:         r.Rate("core.wan_bytes_rate"),
		optRate:         r.Rate("core.optbound_bytes_rate"),
	}
}

// PolicyCounters are one policy's core.decisions counters, one per
// verdict, resolved once so that publishing a query's decisions builds
// no label and looks nothing up. The zero value (a nil Telemetry's)
// counts nothing.
type PolicyCounters struct {
	hit, bypass, load *obs.Counter
}

// PolicyCounters resolves the verdict counters of the named policy.
func (t *Telemetry) PolicyCounters(policy string) PolicyCounters {
	if t == nil {
		return PolicyCounters{}
	}
	return PolicyCounters{
		hit:    t.decisions.Get(policy + "/" + Hit.String()),
		bypass: t.decisions.Get(policy + "/" + Bypass.String()),
		load:   t.decisions.Get(policy + "/" + Load.String()),
	}
}

// addFlows adds an accounting's decision counts and byte flows to the
// lifetime counters that mirror it.
func (t *Telemetry) addFlows(pc PolicyCounters, a Accounting) {
	pc.hit.Add(a.Hits)
	pc.bypass.Add(a.Bypasses)
	pc.load.Add(a.Loads)
	t.accesses.Add(a.Accesses)
	t.yieldBytes.Add(a.YieldBytes)
	t.cacheBytes.Add(a.CacheBytes)
	t.bypassBytes.Add(a.BypassBytes)
	t.fetchBytes.Add(a.FetchBytes)
}

// Publish charges the accesses of one query, given as the accounting
// they produced (Account's flow rules, so the registry reconciles with
// the accounting the delta is added to). Each sliding-window rate a
// decision of the query feeds is fed once, with the query's sum.
func (t *Telemetry) Publish(pc PolicyCounters, q Accounting) {
	if t == nil || q.Accesses == 0 {
		return
	}
	t.addFlows(pc, q)
	if q.Hits+q.Loads > 0 {
		t.cacheRate.Add(q.CacheBytes)
	}
	if q.Bypasses > 0 {
		t.bypassRate.Add(q.BypassBytes)
	}
	if q.Loads > 0 {
		t.fetchRate.Add(q.FetchBytes)
	}
	if q.Bypasses+q.Loads > 0 {
		t.wanRate.Add(q.WANBytes())
	}
}

// SeedRestored re-publishes the cumulative counters that mirror a
// restored Accounting, so a registry snapshot keeps reconciling with
// the mediator's flow ledger (core.yield_bytes = Acct.YieldBytes =
// D_A, the invariant byinspect -federation checks) across a warm
// restart. Only the lifetime counters Publish drives are seeded:
// sliding-window rates, latency histograms, and the degraded-mode
// site families describe live traffic and restart empty (Accounting
// cannot apportion historical hits between free and forced serves
// anyway — both charge the Hit flow rules).
func (t *Telemetry) SeedRestored(pc PolicyCounters, a Accounting) {
	if t == nil {
		return
	}
	t.addFlows(pc, a)
}

// RecordForced counts one forced serve-from-cache: the owning site
// was unavailable, so the cached (possibly stale) copy was served.
// The byte flows follow the Hit rules — the bytes really came from
// the cache — and reach the registry with the rest of the query's
// (Publish); these are the degraded-mode counters on top.
func (t *Telemetry) RecordForced(site string, yield int64) {
	if t == nil {
		return
	}
	t.forcedDecisions.Add(site, 1)
	t.staleBytes.Add(yield)
}

// RecordFailedLeg counts one dropped access: site down, object not
// cached, nothing delivered and nothing charged.
func (t *Telemetry) RecordFailedLeg(site string) {
	if t == nil {
		return
	}
	t.failedLegs.Add(site, 1)
}

// RecordDegradedQuery counts one query that had at least one forced
// or failed access.
func (t *Telemetry) RecordDegradedQuery() {
	if t == nil {
		return
	}
	t.degradedQueries.Add(1)
}

// ObserveDecide records a query's decide loop — n accesses that took d
// together — in the core.decide_seconds histogram as n observations of
// the mean step, d / n (in nanoseconds).
func (t *Telemetry) ObserveDecide(d time.Duration, n int) {
	if t == nil || n == 0 {
		return
	}
	t.decide.ObserveN(int64(d)/int64(n), int64(n))
}

// ObserveDecideWait records how long one query waited for the
// decision lock, in microseconds, in core.decide_wait_us.
func (t *Telemetry) ObserveDecideWait(d time.Duration) {
	if t == nil {
		return
	}
	t.decideWait.Observe(d.Microseconds())
}

// QueryInflight moves the core.query_concurrency gauge by delta; the
// proxy brackets each client query's pipeline (+1 on entry, −1 on
// exit), so the gauge reads the instantaneous overlap.
func (t *Telemetry) QueryInflight(delta int64) {
	if t == nil {
		return
	}
	t.queryConcurrency.Add(delta)
}

// LegInflight moves the core.legs_inflight gauge by delta; the proxy
// brackets each WAN leg (object fetch or bypass sub-query).
func (t *Telemetry) LegInflight(delta int64) {
	if t == nil {
		return
	}
	t.legsInflight.Add(delta)
}

// RecordShadow charges WAN traffic a shadow baseline would have
// incurred since it last published.
func (t *Telemetry) RecordShadow(baseline string, wan int64) {
	if t == nil || wan == 0 {
		return
	}
	t.shadowWAN.Add(baseline, wan)
}

// RecordOptBound advances the ski-rental lower bound by delta bytes
// (the increment of Σ_i min(accumulated bypass cost_i, f_i)).
func (t *Telemetry) RecordOptBound(delta int64) {
	if t == nil || delta <= 0 {
		return
	}
	t.optBoundBytes.Add(delta)
	t.optRate.Add(delta)
}

// PublishSavings moves the bytes-saved-vs-baseline gauges by deltas.
// A shadow set publishes the change in its own counterfactual-minus-
// realized WAN, so the gauges read the sum over the sets sharing this
// telemetry — with one set, that set's current value.
func (t *Telemetry) PublishSavings(dBypass, dLRUK int64) {
	if t == nil {
		return
	}
	t.savedVsBypass.Add(dBypass)
	t.savedVsLRUK.Add(dLRUK)
}

// PublishCompetitive accumulates realized-WAN and ski-rental-bound
// deltas into the telemetry's global totals and republishes the
// competitive-ratio gauges, in thousandths (gauges are integers): the
// lifetime ratio from the accumulated totals, and the windowed ratio
// from the recent WAN and bound rates. A zero denominator leaves the
// gauge at 0.
func (t *Telemetry) PublishCompetitive(dWAN, dBound int64) {
	if t == nil {
		return
	}
	wan := t.compWAN.Add(dWAN)
	bound := t.compBound.Add(dBound)
	if bound > 0 {
		t.compRatio.Set(wan * 1000 / bound)
	}
	if br := t.optRate.PerSecond(); br > 0 {
		t.compRatioWindow.Set(int64(t.wanRate.PerSecond() / br * 1000))
	}
}

// RecordQuery feeds the windowed query rate; the mediator calls it
// once per mediated statement.
func (t *Telemetry) RecordQuery() {
	if t == nil {
		return
	}
	t.queryRate.Add(1)
}

// RecordEvictions adds an eviction count for a policy (callers feed
// deltas of Policy.Evictions).
func (t *Telemetry) RecordEvictions(policy string, n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.evictions.Add(policy, n)
}

// EpisodeOpened counts one episode opening in a rate profile.
func (t *Telemetry) EpisodeOpened() {
	if t == nil {
		return
	}
	t.episodesOpened.Add(1)
}

// EpisodeClosed counts one episode closing.
func (t *Telemetry) EpisodeClosed() {
	if t == nil {
		return
	}
	t.episodesClosed.Add(1)
}
