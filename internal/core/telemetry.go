package core

import (
	"time"

	"bypassyield/internal/obs"
)

// Telemetry is the cache core's view of an obs.Registry. Two kinds of
// metric hang off it.
//
// Events are pushed as they happen: degraded-mode serves and dropped
// legs, decision latency, pipeline concurrency, episode churn.
//
// The Figure-1 flows are not: they live in the decision plane's
// Accounting and its shadow sums, and Mirror copies one reading of both —
// taken under the plane's lock by the registry collector that calls it
// at every scrape — into the metrics below. A snapshot therefore
// reconciles with the accounting it was read from exactly, D_A =
// D_S + D_C included.
//
// Mirrored (Mirror):
//
//	core.decisions            counter family, label "<policy>/<verdict>"
//	core.evictions            counter family, label "<policy>" (from the
//	                          first eviction)
//	core.accesses             counter
//	core.bypass_bytes         counter (D_S, cost-scaled)
//	core.fetch_bytes          counter (D_L)
//	core.cache_bytes          counter (D_C)
//	core.yield_bytes          counter (raw yield)
//	core.shadow_wan_bytes     counter family, label "always-bypass" (from
//	                          its first WAN byte); see shadow.go
//	core.optbound_bytes       counter: ski-rental lower bound
//	core.bytes_saved_vs_bypass  gauge: always-bypass WAN − realized WAN
//	core.competitive_ratio_milli gauge: 1000 · realized WAN / bound
//
// A reader that wants them per interval — a byte hit ratio, the WAN
// reduction (D_A − D_S − D_L)/D_A — takes the deltas between two
// scrapes (`by watch`).
//
// Pushed:
//
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
// Decision latency (the cost of deciding one access):
//
//	core.decide_seconds       histogram; one observation per access the
//	                          policy decided, each the mean step of its
//	                          query's decide loop (policy, flows, shadows,
//	                          ledger slot; not the journal, written after
//	                          the loop), which is timed once per query,
//	                          end to end. NANOSECONDS,
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
// A Telemetry built over a nil registry — or a nil *Telemetry — is a
// no-op, so policies and the decision loop thread it unconditionally.
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

	decide     *obs.Histogram
	decideWait *obs.Histogram

	queryConcurrency *obs.Gauge
	legsInflight     *obs.Gauge

	shadowWAN     *obs.CounterFamily
	optBoundBytes *obs.Counter
	savedVsBypass *obs.Gauge
	compRatio     *obs.Gauge
}

// DecideBuckets are the explicit core.decide_seconds bucket bounds in
// nanoseconds: policy decisions are map lookups plus at worst a victim
// scan, so the resolution concentrates between 100ns and 100µs with a
// long tail to 10ms for pathological victim sets.
func DecideBuckets() []int64 {
	return []int64{100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000, 10_000_000}
}

// TelemetrySetter is implemented by policies that publish internal
// churn (episode open/close, ...) through a Telemetry. The decision
// loop attaches its telemetry to any policy implementing it.
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

		decide:     r.Histogram("core.decide_seconds", DecideBuckets()),
		decideWait: r.Histogram("core.decide_wait_us", obs.DefaultLatencyBuckets()),

		queryConcurrency: r.Gauge("core.query_concurrency"),
		legsInflight:     r.Gauge("core.legs_inflight"),

		shadowWAN:     r.CounterFamily("core.shadow_wan_bytes"),
		optBoundBytes: r.Counter("core.optbound_bytes"),
		savedVsBypass: r.Gauge("core.bytes_saved_vs_bypass"),
		compRatio:     r.Gauge("core.competitive_ratio_milli"),
	}
}

// Mirror stores one reading of a decision plane in the metrics that
// mirror it: a, the accounting of the plane whose policy is named
// policy ("none" without one), and sh, its shadow set's state read
// against a (zero without shadows). The caller reads both under the
// plane's lock, so the metrics agree with each other as the plane did.
func (t *Telemetry) Mirror(policy string, a Accounting, sh ShadowStats) {
	if t == nil {
		return
	}
	t.decisions.Get(policy + "/" + Hit.String()).Store(a.Hits)
	t.decisions.Get(policy + "/" + Bypass.String()).Store(a.Bypasses)
	t.decisions.Get(policy + "/" + Load.String()).Store(a.Loads)
	if a.Evictions > 0 {
		t.evictions.Get(policy).Store(a.Evictions)
	}
	t.accesses.Store(a.Accesses)
	t.yieldBytes.Store(a.YieldBytes)
	t.cacheBytes.Store(a.CacheBytes)
	t.bypassBytes.Store(a.BypassBytes)
	t.fetchBytes.Store(a.FetchBytes)

	if sh.BypassWANBytes > 0 {
		t.shadowWAN.Get("always-bypass").Store(sh.BypassWANBytes)
	}
	t.optBoundBytes.Store(sh.OptBoundBytes)
	t.savedVsBypass.Set(sh.SavedVsBypassBytes)
	if sh.OptBoundBytes > 0 {
		t.compRatio.Set(sh.CompetitiveRatioMilli)
	}
}

// RecordForced counts one forced serve-from-cache: the owning site
// was unavailable, so the cached (possibly stale) copy was served.
// The byte flows follow the Hit rules — the bytes really came from
// the cache — and are the accounting's; these are the degraded-mode
// counters on top.
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
