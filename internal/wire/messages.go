package wire

import (
	"bypassyield/internal/core"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/obs/ledger"
)

// QueryMsg carries a SQL statement. TraceID/ParentSpan propagate the
// distributed trace context (16-hex-digit obs ids); both empty means
// untraced, which keeps the frame byte-identical to the pre-tracing
// protocol — old clients and nodes interoperate unchanged.
type QueryMsg struct {
	SQL        string `json:"sql"`
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`
}

// TraceContext decodes the frame's trace fields (zero when untraced
// or malformed).
func (q QueryMsg) TraceContext() obs.TraceContext {
	return obs.TraceContext{TraceID: obs.ParseID(q.TraceID), SpanID: obs.ParseID(q.ParentSpan)}
}

// ResultMsg returns an execution result plus, from the proxy, the
// cache decisions the query triggered.
type ResultMsg struct {
	// Columns names the output columns.
	Columns []string `json:"columns"`
	// Rows is the logical result cardinality.
	Rows int64 `json:"rows"`
	// Bytes is the logical result size (yield).
	Bytes int64 `json:"bytes"`
	// Tuples holds a bounded sample of result rows.
	Tuples [][]float64 `json:"tuples,omitempty"`
	// Decisions lists per-object cache handling (proxy responses
	// only).
	Decisions []DecisionMsg `json:"decisions,omitempty"`
	// Partial marks a degraded result: one or more sites were
	// unavailable, so their legs were served from cache (possibly
	// stale) or dropped. SiteErrors carries the per-site detail.
	Partial    bool           `json:"partial,omitempty"`
	SiteErrors []SiteErrorMsg `json:"site_errors,omitempty"`
	// TransportErrors lists WAN legs (fetches, sub-queries) that
	// failed at the transport layer after mediation decided and
	// accounted them. The logical result is unaffected — accounting is
	// over logical sizes — but clients can see which sites misbehaved.
	TransportErrors []SiteErrorMsg `json:"transport_errors,omitempty"`
}

// SiteErrorMsg annotates one unavailable site's contribution to a
// partial result.
type SiteErrorMsg struct {
	// Site is the unavailable federation member.
	Site string `json:"site"`
	// Error explains why (breaker state, backoff remaining).
	Error string `json:"error"`
	// LostBytes is the yield dropped from the result because the
	// site's uncached objects could not be served.
	LostBytes int64 `json:"lost_bytes,omitempty"`
}

// DecisionMsg is one per-object cache decision.
type DecisionMsg struct {
	Object   string `json:"object"`
	Site     string `json:"site"`
	Yield    int64  `json:"yield"`
	Decision string `json:"decision"`
	// Forced marks a decision the policy did not choose freely: the
	// site was unavailable, so the mediator forced serve-from-cache.
	Forced bool `json:"forced,omitempty"`
	// Failed marks a leg that could not be served at all (site down,
	// object not cached). Yield is what the leg would have delivered;
	// nothing was charged for it.
	Failed bool `json:"failed,omitempty"`
	// Reason explains a forced or failed decision.
	Reason string `json:"reason,omitempty"`
}

// ErrorMsg returns a failure message.
type ErrorMsg struct {
	Message string `json:"message"`
}

// FetchMsg asks a node for a whole object. The trace fields follow
// QueryMsg's convention (empty = untraced).
type FetchMsg struct {
	Object     string `json:"object"`
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`
}

// TraceContext decodes the frame's trace fields (zero when untraced
// or malformed).
func (f FetchMsg) TraceContext() obs.TraceContext {
	return obs.TraceContext{TraceID: obs.ParseID(f.TraceID), SpanID: obs.ParseID(f.ParentSpan)}
}

// FetchAckMsg acknowledges a fetch with the object's logical size —
// the WAN bytes the transfer represents.
type FetchAckMsg struct {
	Object string `json:"object"`
	Size   int64  `json:"size"`
}

// StatsMsg requests proxy statistics (empty payload).
type StatsMsg struct{}

// PingMsg is a health probe (empty payload).
type PingMsg struct{}

// PongMsg answers a probe with the responder's identity.
type PongMsg struct {
	// Site names the answering node.
	Site string `json:"site,omitempty"`
}

// MetricsMsg requests a daemon's observability snapshot (empty
// payload).
type MetricsMsg struct{}

// MetricsResultMsg returns a daemon's metrics: every counter, gauge,
// and histogram its registry holds, deterministically ordered.
type MetricsResultMsg struct {
	// Source identifies the answering daemon ("byproxyd" or
	// "bydbd:<site>").
	Source string `json:"source"`
	// Snapshot is the registry contents.
	Snapshot obs.Snapshot `json:"snapshot"`
}

// DecisionsMsg requests recent decision-ledger records. Empty filter
// fields match everything; Limit ≤ 0 selects the server default.
type DecisionsMsg struct {
	// Object filters by exact object id.
	Object string `json:"object,omitempty"`
	// Action filters by decision ("hit", "bypass", "load").
	Action string `json:"action,omitempty"`
	// Trace filters by the 16-hex-digit trace id.
	Trace string `json:"trace,omitempty"`
	// Limit caps the returned records (most recent kept).
	Limit int `json:"limit,omitempty"`
}

// DecisionsResultMsg returns matching ledger records plus shadow
// counterfactual accounting for audits.
type DecisionsResultMsg struct {
	// Total is the number of decisions ever recorded (records older
	// than the ring capacity have been overwritten).
	Total uint64 `json:"total"`
	// Records are the matching records, oldest first.
	Records []ledger.DecisionRecord `json:"records"`
	// Baselines carries the online counterfactual results (empty when
	// shadow accounting is disabled).
	Baselines []core.ShadowResult `json:"baselines,omitempty"`
	// OptBoundBytes is the running ski-rental lower bound on WAN
	// traffic (0 when shadow accounting is disabled).
	OptBoundBytes int64 `json:"optbound_bytes,omitempty"`
	// CompetitiveRatioMilli is 1000 · realized WAN / bound.
	CompetitiveRatioMilli int64 `json:"competitive_ratio_milli,omitempty"`
}

// ExemplarsMsg requests flight-recorder exemplars. Empty filter
// fields match everything; Limit ≤ 0 selects the server default.
type ExemplarsMsg struct {
	// Outcome filters by "slow", "error", "degraded", or "normal".
	Outcome string `json:"outcome,omitempty"`
	// MinUS keeps only exemplars at least this slow (microseconds).
	MinUS int64 `json:"min_us,omitempty"`
	// Limit caps the returned exemplars (most recent kept).
	Limit int `json:"limit,omitempty"`
}

// ExemplarsResultMsg returns matching exemplars plus the recorder's
// capture statistics.
type ExemplarsResultMsg struct {
	// Source identifies the answering daemon ("byproxyd" or
	// "bydbd:<site>").
	Source string `json:"source"`
	// Observed counts every finished query the recorder saw.
	Observed uint64 `json:"observed"`
	// Published counts exemplars ever published (records older than
	// the ring capacity have been overwritten).
	Published uint64 `json:"published"`
	// ThresholdUS is the recorder's slow-capture threshold.
	ThresholdUS int64 `json:"threshold_us"`
	// Exemplars are the matching records, oldest first.
	Exemplars []flightrec.Exemplar `json:"exemplars"`
}

// StatsResultMsg returns the proxy's state: the paper's flow
// accounting plus physical transport counters for the prototype's own
// frames.
type StatsResultMsg struct {
	// Policy names the active cache policy.
	Policy string `json:"policy"`
	// Granularity is "tables" or "columns".
	Granularity string `json:"granularity"`
	// Acct is the logical flow accounting (Figure 1).
	Acct core.Accounting `json:"acct"`
	// CacheUsed and CacheCapacity describe the cache in bytes.
	CacheUsed     int64 `json:"cache_used"`
	CacheCapacity int64 `json:"cache_capacity"`
	// TransportTx/Rx count physical frame bytes the proxy exchanged
	// with database nodes.
	TransportTx int64 `json:"transport_tx"`
	TransportRx int64 `json:"transport_rx"`
	// Queries is the number of client queries served.
	Queries int64 `json:"queries"`
	// CachedObjects lists currently cached object ids (bounded; only
	// populated when the policy exposes its contents).
	CachedObjects []string `json:"cached_objects,omitempty"`
}
