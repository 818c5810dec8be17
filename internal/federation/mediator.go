package federation

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/netcost"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/sqlparse"
)

// Config assembles a mediator.
type Config struct {
	// Schema is the federated release.
	Schema *catalog.Schema
	// Engine executes queries (a full copy of the release, possibly
	// sampled; yields are logical either way).
	Engine *engine.DB
	// Policy is the bypass-yield cache instance. Nil with no NewPolicy
	// means no caching (every access bypasses).
	Policy core.Policy
	// NewPolicy builds the policy: it is called once, as
	// NewPolicy(0, Capacity). Mutually exclusive with Policy.
	//
	// Deprecated: the frozen bench/ module constructs its mediators
	// through this signature; build the policy and set Policy instead.
	NewPolicy func(shard int, capacity int64) (core.Policy, error)
	// Capacity is the cache capacity in bytes handed to NewPolicy
	// (ignored with Policy, which carries its own capacity).
	Capacity int64
	// Granularity selects table or column objects.
	Granularity Granularity
	// Obs, when non-nil, receives the mediator's telemetry: per-query
	// mediation latency (federation.query_latency_us), objects touched
	// (federation.objects_touched), and the core families (see
	// core.Telemetry), of which the decision counts, byte flows and
	// shadow figures are read from the decision plane at every
	// Snapshot. The registry is shared — the proxy serves it in its
	// scrape reply (wire.MsgScrape).
	Obs *obs.Registry
	// Ledger, when non-nil, receives one explained DecisionRecord per
	// object access, a query's worth at a time (served in the proxy's
	// scrape reply).
	Ledger *ledger.Ledger
	// Shadows enables online counterfactual accounting: every access
	// adds to the always-bypass WAN and the ski-rental bound, which the
	// core.bytes_saved_vs_bypass and core.competitive_ratio_milli gauges
	// read against the accounting.
	Shadows bool
	// Shards must be 0 or 1: the decision plane is one cache of one
	// capacity; New rejects anything larger.
	//
	// Deprecated: the frozen bench/ module sets this field; it selects
	// nothing.
	Shards int
}

// SiteHealth reports whether a federation site can currently serve
// traffic. The proxy implements it over its per-site circuit
// breakers; the mediator consults it before every decision so an
// unreachable site degrades to serve-from-cache or a failed leg
// instead of a doomed RPC, and before shipping a statement.
type SiteHealth interface {
	// SiteAvailable reports whether the site admits traffic; when it
	// does not, reason explains why ("breaker open site=X ...").
	SiteAvailable(site string) (ok bool, reason string)
}

// Mediator is the federation entry point the paper collocates with
// the proxy cache: it receives SQL, resolves it against the release,
// executes it, decomposes the yield across referenced objects, and
// drives the cache policy with full flow accounting.
//
// The mediator is safe for concurrent use. Query execution (bind,
// engine evaluation, yield decomposition) runs lock-free — the engine
// is an immutable column store with atomic counters — while the
// decision phase runs under one lock, mu: the plane clock, the policy,
// the accounting, the shadow sums and the decision ledger are one
// sequential state, as in the paper, so Σ decision yields = D_A holds
// exactly at every unlock. A query waits for mu awake (lockDecision): it is held for
// microseconds, and a sleeper's wake-up takes tens to hundreds. Callers
// execute the decided WAN legs after QueryScratch returns, outside
// the lock — the decide-then-execute handoff — except for a statement
// whose decision its yield cannot change, which QueryScratch's caller
// ships first (see Ship).
type Mediator struct {
	cfg Config
	// index is the object universe by position, which decomposition
	// walks; objects is the same universe by id, for callers and for
	// journal replay. Both are immutable.
	index   *objectIndex
	objects map[core.ObjectID]core.Object

	policyName string
	capacity   int64

	// mu is the decision lock; everything in this group is guarded by
	// it and held for the decide phase only.
	mu sync.Mutex
	// t is the plane clock: the count of queries decided so far. It is
	// the policy's notion of time, QueryReport.Seq, the ledger's T and
	// both clocks of a journal record.
	t int64
	// replayBase is the plane clock at the restored snapshot boundary;
	// WAL replay skips records at or below it (their effects are inside
	// the snapshot).
	replayBase int64
	// dec is the decision loop — the policy, the accounting and their
	// observers (shadows, ledger, core telemetry) — shared with
	// core.Simulator.
	dec     *core.Decider
	policy  core.Policy
	shadows *core.ShadowSet
	// ledger is the decision audit trail the Decider writes; its ring
	// has no lock of its own (nil when not configured).
	ledger  *ledger.Ledger
	journal Journal

	// health is the SiteHealth (nil: every site is available). A query
	// reads it once, before its statement is executed or shipped.
	health atomic.Pointer[SiteHealth]

	// Telemetry (no-ops when cfg.Obs is nil).
	tel          *core.Telemetry
	queryLatency *obs.Histogram
	objsTouched  *obs.Counter
	queriesMet   *obs.Counter
}

// AccessDecision records the cache's handling of one object access
// within a query.
type AccessDecision struct {
	// Object is the referenced object.
	Object core.ObjectID
	// Table is the position in the schema's Tables of the table the
	// object belongs to (its own, a column's, or a view's base table):
	// the proxy ships a bypass to the FROM tables at that position.
	Table int
	// Site is the owning federation site.
	Site string
	// Yield is the access's share of the query yield. On a failed leg
	// it is the yield the leg would have delivered; nothing was
	// charged for it.
	Yield int64
	// Decision is the cache's choice (Hit for forced serves;
	// meaningless when Failed).
	Decision core.Decision
	// Forced marks a serve-from-cache the policy did not choose
	// freely: the owning site was unavailable, bypass was impossible,
	// and the cached copy was served stale.
	Forced bool
	// Failed marks a leg dropped entirely: site unavailable and the
	// object not cached.
	Failed bool
	// Reason explains a forced or failed decision
	// ("forced-cache: breaker open site=B", ...).
	Reason string
}

// SiteError annotates one unavailable site's impact on a query.
type SiteError struct {
	// Site is the unavailable federation member.
	Site string
	// Reason is the health detail ("breaker open site=B").
	Reason string
	// LostBytes is the yield dropped from the result because the
	// site's uncached objects could not be served.
	LostBytes int64
}

// QueryReport is the outcome of one mediated query.
type QueryReport struct {
	// SQL is the original statement.
	SQL string
	// Seq is the query's position in the mediator's stream.
	Seq int64
	// Bound is the statement as QueryScratch bound and executed it —
	// once; its caller, the proxy, builds sub-queries from it instead of
	// binding again. It is nil in a report of Query or QueryStmt, whose
	// binding stays in the pooled Scratch: a caller of theirs that needs
	// one calls engine.Bind, or mediates with QueryScratch.
	Bound *engine.Bound
	// Result is the execution result (logical cardinality and yield).
	// In degraded mode Result.Bytes excludes the yield of failed legs
	// — it is what the client actually receives, so it still equals
	// the accounting's delivered-bytes increment (D_A). From Query and
	// QueryStmt it is the report's own copy of the column names and
	// sizes, and Tuples is nil (engine.DB.SizeInto); QueryScratch's is
	// the Scratch's and carries the tuples too.
	Result *engine.Result
	// Shipped reports a statement its site answered before the decision
	// (see Ship): Result holds the answer's Rows and Bytes and no columns
	// or tuples, which are the shipper's.
	Shipped bool
	// Decisions lists per-object cache decisions, in access order.
	Decisions []AccessDecision
	// Degraded reports that at least one access was forced or failed.
	Degraded bool
	// SiteErrors details each unavailable site touched by the query.
	SiteErrors []SiteError
	// Phase timings in microseconds, consumed by the proxy's flight
	// recorder for critical-path attribution: ExecUS is the lock-free
	// bind/execute phase, LockWaitUS the time blocked waiting for the
	// decision lock, DecideUS the decision work under it.
	ExecUS     int64
	LockWaitUS int64
	DecideUS   int64
}

// New builds a mediator. The engine must serve the same schema.
func New(cfg Config) (*Mediator, error) {
	if cfg.Schema == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("federation: schema and engine are required")
	}
	if cfg.Engine.Schema() != cfg.Schema {
		return nil, fmt.Errorf("federation: engine serves schema %q, mediator configured for %q",
			cfg.Engine.Schema().Name, cfg.Schema.Name)
	}
	if cfg.Policy != nil && cfg.NewPolicy != nil {
		return nil, fmt.Errorf("federation: Policy and NewPolicy are mutually exclusive")
	}
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("federation: Shards = %d, but the decision plane is one cache of one capacity (0 or 1)", cfg.Shards)
	}
	index := newObjectIndex(cfg.Schema, cfg.Schema.Name, cfg.Granularity, netcost.Uniform())
	// A policy may rely on every object being valid: Rate-Profile's victim
	// order is total only while every size is positive.
	if err := index.each(core.Object.Validate); err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	m := &Mediator{
		cfg:          cfg,
		index:        index,
		objects:      index.objects(),
		policyName:   "none",
		policy:       cfg.Policy,
		tel:          core.NewTelemetry(cfg.Obs),
		queryLatency: cfg.Obs.Histogram("federation.query_latency_us", obs.DefaultLatencyBuckets()),
		objsTouched:  cfg.Obs.Counter("federation.objects_touched"),
		queriesMet:   cfg.Obs.Counter("federation.queries"),
		ledger:       cfg.Ledger,
	}
	if cfg.NewPolicy != nil {
		pol, err := cfg.NewPolicy(0, cfg.Capacity)
		if err != nil {
			return nil, fmt.Errorf("federation: building policy: %w", err)
		}
		m.policy = pol
	}
	if m.policy != nil {
		m.policyName = m.policy.Name()
		m.capacity = m.policy.Capacity()
	}
	if cfg.Shadows {
		m.shadows = core.NewShadowSet()
	}
	m.dec = core.NewDecider(m.policy, m.tel, m.shadows, m.ledger)
	cfg.Obs.RegisterCollector(m.collect)
	return m, nil
}

// collect is the registry's collector of the decision plane: it reads
// the accounting and the shadows under mu — one instant of both, never
// mid-query — and stores the metrics that mirror them, so a snapshot
// agrees with Accounting() at some unlock and with itself (D_A = D_S +
// D_C, Σ core.decisions = core.accesses).
func (m *Mediator) collect() {
	r := m.read(nil)
	m.tel.Mirror(r.Policy, r.Acct, r.Shadows)
}

// Obs returns the registry the mediator publishes into (nil when
// observability is not configured).
func (m *Mediator) Obs() *obs.Registry { return m.cfg.Obs }

// SetHealth attaches a site-health source (the proxy's breakers).
// Nil detaches; every site is then considered available. A query
// already past its bind keeps the source it read.
func (m *Mediator) SetHealth(h SiteHealth) {
	if h == nil {
		m.health.Store(nil)
		return
	}
	m.health.Store(&h)
}

// siteHealth is the attached SiteHealth, nil when there is none.
func (m *Mediator) siteHealth() SiteHealth {
	if h := m.health.Load(); h != nil {
		return *h
	}
	return nil
}

// Objects returns the cacheable-object universe.
func (m *Mediator) Objects() map[core.ObjectID]core.Object { return m.objects }

// Schema returns the federated release schema.
func (m *Mediator) Schema() *catalog.Schema { return m.cfg.Schema }

// Granularity returns the configured object granularity.
func (m *Mediator) Granularity() Granularity { return m.cfg.Granularity }

// Policy returns the cache policy (nil when caching is disabled). It
// mutates under the decision lock; use Read to read it while queries
// run.
func (m *Mediator) Policy() core.Policy { return m.policy }

// ShardCount returns 1.
//
// Deprecated: the frozen bench/ module reports this number; the
// decision plane has no partitions.
func (m *Mediator) ShardCount() int { return 1 }

// Accounting returns the accumulated flow accounting, captured under
// the decision lock (consistent: never mid-access).
func (m *Mediator) Accounting() core.Accounting {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dec.Acct
}

// Telemetry returns the mediator's core telemetry (nil when
// observability is not configured); the proxy publishes its pipeline
// concurrency gauges through it.
func (m *Mediator) Telemetry() *core.Telemetry { return m.tel }

// Reading is the decision plane read in one hold of the decision lock:
// every part describes the same moment, between two queries' decisions.
type Reading struct {
	// Clock is the plane clock: the number of queries mediated so far.
	Clock int64
	// Acct is the flow accounting.
	Acct core.Accounting
	// Policy names the cache policy ("none" without one); Used and
	// Capacity are its cache's bytes, and Contents lists the cached
	// object ids when the policy implements core.ContentLister.
	Policy         string
	Used, Capacity int64
	Contents       []core.ObjectID
	// Shadows are the shadow figures against Acct (zero when shadows
	// are disabled).
	Shadows core.ShadowStats
	// Recorded is the number of ledger records ever written, and Records
	// the retained ones the query selected (none without a ledger).
	Recorded uint64
	Records  []ledger.DecisionRecord
}

// Read reads the decision plane under the decision lock, once: the
// clock, the accounting, the policy's cache, the shadow figures, and the
// ledger's count and the records q selects.
func (m *Mediator) Read(q ledger.Query) Reading { return m.read(&q) }

// read is Read; a nil q leaves out what only a scrape asks for, the
// cache's contents and the ledger.
func (m *Mediator) read(q *ledger.Query) Reading {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := Reading{Clock: m.t, Acct: m.dec.Acct, Policy: m.policyName, Shadows: m.shadows.Stats(m.dec.Acct)}
	if m.policy != nil {
		r.Used, r.Capacity = m.policy.Used(), m.capacity
	}
	if q == nil {
		return r
	}
	if cl, ok := m.policy.(core.ContentLister); ok {
		r.Contents = cl.Contents()
	}
	r.Recorded = m.ledger.Count()
	r.Records = m.ledger.Select(*q)
	return r
}

// Scratch is the memory one statement is mediated in: its parse, its
// binding with the referenced columns, the shares and accesses its yield
// decomposes into, the header of its result with the column names, and
// the report with its decisions and site errors. The zero value is ready,
// and nothing in it is sized before a statement asks for it.
//
// QueryScratch refills it in place, so the report it returns — and the
// Bound and the Result the report points to, and every slice of the
// three — is good until the Scratch is handed to QueryScratch again: a
// serving connection keeps one and mediates its next statement once the
// reply to the last is written. Query and QueryStmt mediate in one taken
// from a pool the package keeps and give it back before they return,
// with the report copied out of it. Strings in a report are not the
// Scratch's (they are the statement text's, the catalog's, the object
// index's, or freshly built) and may be kept; so may anything copied by
// value, which is all the ledger, the journal, the flight recorder and
// the policy take. Nothing else may point into a Scratch.
//
// A Scratch is for one goroutine at a time.
type Scratch struct {
	// parser is nil until a statement arrives as text, through
	// QueryScratch or Query.
	parser    *sqlparse.Parser
	bound     engine.Bound
	result    engine.Result
	shares    []share
	accs      []access
	decisions []AccessDecision
	siteErrs  []SiteError
	rep       QueryReport
}

// Release gives the result's tuples back to the engine (see
// engine.Result.Release): the caller has sent or copied them. The rest
// of the report stays readable until the next QueryScratch.
func (sc *Scratch) Release() { sc.result.Release() }

// Scramble overwrites everything the Scratch holds — the parsed
// statement, the binding, the result with its tuples, shares, accesses,
// decisions, site errors and the report — with values no statement has:
// what the next QueryScratch would do to it, only all at once and
// unmistakably. It is for the tests of a Scratch's owners, which call it
// once a statement's reply is written so that whatever still points into
// the Scratch — a ledger record, an exemplar, a journal entry, a reply
// another connection is building — fails or shows garbage instead of the
// last statement's plausible values. The Scratch is as ready afterwards,
// and as releasable, as before.
func (sc *Scratch) Scramble() {
	const (
		scrambled = "\x00scrambled"
		never     = math.MinInt64
	)
	if sc.parser != nil {
		sc.parser.Scramble()
	}
	sc.bound.Scramble()
	sc.result.Scramble()
	fill(sc.shares, share{weight: never, rem: never, yield: never, table: -1, rank: -1, pos: -1})
	fill(sc.accs, access{table: math.MinInt32, yield: never})
	fill(sc.decisions, AccessDecision{
		Object: scrambled, Table: math.MinInt32, Site: scrambled, Yield: never,
		Decision: core.Decision(255), Forced: true, Failed: true, Reason: scrambled,
	})
	fill(sc.siteErrs, SiteError{Site: scrambled, Reason: scrambled, LostBytes: never})
	sc.rep = QueryReport{
		SQL: scrambled, Seq: never, Bound: &sc.bound, Result: &sc.result,
		Decisions: sc.decisions[:cap(sc.decisions)], SiteErrors: sc.siteErrs[:cap(sc.siteErrs)],
		Shipped: true, Degraded: true, ExecUS: never, LockWaitUS: never, DecideUS: never,
	}
}

// fill overwrites s to its capacity with v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// take returns n elements of *buf, replaced by an exactly sized fresh
// slice when it is too short, and nil for none. The elements are
// whatever the last statement left there: the caller writes every one.
func take[T any](buf *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// scratchPool holds the Scratches Query and QueryStmt mediate in.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// maxPooledLen bounds the lists of a Scratch the pool keeps, as the
// engine bounds its vectors: the Scratch of a statement thousands of
// columns wide is dropped, not kept for the narrow ones after it.
const maxPooledLen = 1 << 10

// scramblePooled makes putScratch scramble every Scratch it pools. The
// tests switch it on (export_test.go), so that a report still pointing
// into a pooled Scratch reads garbage from the moment it is returned.
var scramblePooled bool

func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// putScratch gives sc back to the pool, unless one of its lists has
// grown past maxPooledLen.
func putScratch(sc *Scratch) {
	if max(cap(sc.bound.Projs), cap(sc.bound.Conds), cap(sc.result.Columns), cap(sc.shares),
		cap(sc.accs), cap(sc.decisions), cap(sc.siteErrs)) > maxPooledLen {
		return
	}
	if scramblePooled {
		sc.Scramble()
	}
	scratchPool.Put(sc)
}

// parse parses sql into sc's Parser.
func (sc *Scratch) parse(sql string) (*sqlparse.SelectStmt, error) {
	if sc.parser == nil {
		sc.parser = new(sqlparse.Parser)
	}
	return sc.parser.Parse(sql)
}

// Query parses a statement and mediates it as QueryStmt does, the parse
// in the pooled Scratch too.
func (m *Mediator) Query(sql string) (*QueryReport, error) {
	sc := getScratch()
	stmt, err := sc.parse(sql)
	if err != nil {
		putScratch(sc)
		return nil, err
	}
	return m.mediatePooled(sc, sql, stmt, "")
}

// QueryStmt sizes, decomposes and decides one parsed statement in a
// pooled Scratch, and returns a report of the caller's own, copied out
// of the Scratch before it goes back: the SQL, Seq, the decisions, the
// degraded annotations, the timings, and a Result with the column names,
// Rows, Bytes and SampleMatches. The decision needs the statement's
// yield, not its rows, so none are built, and Tuples is nil; Bound is
// nil too. A caller that needs the binding calls engine.Bind, and one
// that needs the rows or the binding in place mediates with
// QueryScratch.
func (m *Mediator) QueryStmt(sql string, stmt *sqlparse.SelectStmt) (*QueryReport, error) {
	return m.mediatePooled(getScratch(), sql, stmt, "")
}

// mediatePooled mediates stmt, sized, in sc, a Scratch from the pool,
// which it puts back, and returns the report copied out of it.
func (m *Mediator) mediatePooled(sc *Scratch, sql string, stmt *sqlparse.SelectStmt, traceID string) (*QueryReport, error) {
	rep, err := m.mediate(sc, sql, stmt, traceID, nil, false)
	if err == nil {
		rep = rep.copyOut()
	}
	putScratch(sc)
	return rep, err
}

// keptReport is a report of Query or QueryStmt with the Result it points
// to, in one allocation.
type keptReport struct {
	rep QueryReport
	res engine.Result
}

// copyOut copies a sized report out of its Scratch: the copy owns every
// slice it holds and shares only strings, which are immutable. The
// binding and the tuples stay behind.
func (rep *QueryReport) copyOut() *QueryReport {
	r := rep.Result
	k := &keptReport{res: engine.Result{
		Columns: slices.Clone(r.Columns), Rows: r.Rows, Bytes: r.Bytes, SampleMatches: r.SampleMatches,
	}}
	k.rep = QueryReport{
		SQL: rep.SQL, Seq: rep.Seq, Result: &k.res,
		Decisions: slices.Clone(rep.Decisions), Degraded: rep.Degraded, SiteErrors: slices.Clone(rep.SiteErrors),
		ExecUS: rep.ExecUS, LockWaitUS: rep.LockWaitUS, DecideUS: rep.DecideUS,
	}
	return &k.rep
}

// Ship is the step with which QueryScratch's caller has a statement
// answered by the one site that owns its tables, before the decision,
// as the paper's bypass ships a query to the server that owns its data
// (§3). The mediator calls it only for a statement whose decision the
// yield cannot change (yieldBlind): every object it reads is larger than
// the whole cache, so every one is bypassed whatever the yield, and the
// answer's Bytes are the yield it decides with. The statement is then
// not executed here. Ship returns the answer's Rows and Bytes — it keeps
// the answer itself — or ok = false when the site did not answer (it
// has no node, or the exchange failed), and the statement is executed
// here and decided as any other.
type Ship func(site string) (rows, bytes int64, ok bool)

// QueryScratch is Query under a trace id ("" for none) with everything
// the statement needs — parse, binding, result header, accesses, report
// — cut from sc, over the statement sc held before: the report is valid
// until sc's next QueryScratch (see Scratch). A yield-blind statement
// goes to ship first (nil: none does). A statement executed here leaves
// its tuples in the report's Result, for the caller to send and then
// Release. A statement that fails leaves sc as ready as one that
// succeeds.
func (m *Mediator) QueryScratch(sc *Scratch, sql, traceID string, ship Ship) (*QueryReport, error) {
	stmt, err := sc.parse(sql)
	if err != nil {
		return nil, err
	}
	return m.mediate(sc, sql, stmt, traceID, ship, true)
}

// mediate binds, executes, decomposes and decides one parsed statement
// in sc; without tuples the statement is sized (engine.DB.SizeInto),
// which gives the decision the same yield. A yield-blind one that ship
// has answered is not executed: its result is the answer's size, and its
// site, which has just answered, is not asked for its health again.
func (m *Mediator) mediate(sc *Scratch, sql string, stmt *sqlparse.SelectStmt, traceID string, ship Ship, tuples bool) (*QueryReport, error) {
	start := time.Now()
	// Execution phase — lock-free. Bind, weighing and engine evaluation
	// read only immutable schema/column data; concurrent queries overlap
	// here.
	b, res := &sc.bound, &sc.result
	if err := b.Rebind(m.cfg.Schema, stmt); err != nil {
		return nil, err
	}
	health := m.siteHealth()
	sh := m.index.weighIn(sc, b)
	shipped := false
	var shipping time.Duration // the ship's round trip is a WAN leg, not execution
	if ship != nil {
		if site, ok := m.yieldBlind(b, sh, health); ok {
			shipStart := time.Now()
			var rows, bytes int64
			rows, bytes, shipped = ship(site)
			shipping = time.Since(shipStart)
			if shipped {
				res.Release()
				*res = engine.Result{Columns: res.Columns[:0], Rows: rows, Bytes: bytes}
				health = nil
			}
		}
	}
	if !shipped {
		var err error
		if tuples {
			err = m.cfg.Engine.ExecuteInto(res, b)
		} else {
			err = m.cfg.Engine.SizeInto(res, b)
		}
		if err != nil {
			return nil, err
		}
	}
	accs := sc.accesses(sh, res.Bytes)
	execUS := (time.Since(start) - shipping).Microseconds()

	rep, err := m.decide(sc, sql, traceID, res, accs, health)
	if err != nil {
		return nil, err
	}
	rep.Bound = b
	rep.Shipped = shipped
	rep.ExecUS = execUS
	m.queryLatency.Observe(time.Since(start).Microseconds())
	return rep, nil
}

// yieldBlind returns the site of a statement whose decision its yield
// cannot change: its tables are all one site's, the site is available,
// and every object it reads (sh, as weighed) is larger than the cache —
// which no policy holds (core.Policy), so each is bypassed whatever its
// share. It reads the Bound's weighing alone and sorts nothing.
func (m *Mediator) yieldBlind(b *engine.Bound, sh []share, health SiteHealth) (string, bool) {
	site, ok := OneSite(b)
	if !ok || len(sh) == 0 {
		return "", false
	}
	if m.policy != nil {
		for i := range sh {
			if sh[i].obj.Size <= m.capacity {
				return "", false
			}
		}
	}
	if health != nil {
		if up, _ := health.SiteAvailable(site); !up {
			return "", false
		}
	}
	return site, true
}

// decide runs the decision phase over decomposed accesses: under the
// decision lock the query takes the next tick of the plane clock and
// its accesses are decided, charged, audited and journaled in access
// order, so Σ decision yields = D_A is exact at every unlock. health is
// asked about the sites of the accesses (nil: all are available).
func (m *Mediator) decide(sc *Scratch, sql, traceID string, res *engine.Result, accs []access, health SiteHealth) (*QueryReport, error) {
	m.queriesMet.Add(1)
	rep := &sc.rep
	*rep = QueryReport{SQL: sql, Result: res, Decisions: take(&sc.decisions, len(accs)), SiteErrors: sc.siteErrs[:0]}
	waitStart := time.Now()
	m.lockDecision(waitStart)
	decideStart := time.Now()
	err := m.decideLocked(rep, accs, traceID, health)
	m.mu.Unlock()
	// A healthy query's SiteErrors is nil, not an empty list.
	if sc.siteErrs = rep.SiteErrors[:0]; len(rep.SiteErrors) == 0 {
		rep.SiteErrors = nil
	}
	if err != nil {
		return nil, err
	}
	wait := decideStart.Sub(waitStart)
	if rep.Degraded {
		m.tel.RecordDegradedQuery()
	}
	m.tel.ObserveDecideWait(wait)
	rep.LockWaitUS = wait.Microseconds()
	rep.DecideUS = time.Since(decideStart).Microseconds()
	return rep, nil
}

// lockSpin is how long lockDecision tries before it parks: some twenty
// holds by another query (7–12 µs each, ~15 for the widest statement,
// `select * from frame`, whose misses share one victim heap), so only a
// hold of another kind (a snapshot's quiesce, a policy listing its
// contents) is slept through.
const lockSpin = 200 * time.Microsecond

// lockDecision takes mu for a query's decide phase; every other taker,
// whose hold may be long, uses Lock. A sync.Mutex waiter parks within a
// microsecond, its thread sleeps, and the wake-up costs more than the
// hold did — up to the scheduler tick on a 2-CPU host, whose second CPU
// it left mostly idle (DESIGN.md, "Waiting for the decision lock"). So a
// query yields its P to other runnable goroutines (the holder, perhaps)
// and tries again, and parks once lockSpin has passed since start.
func (m *Mediator) lockDecision(start time.Time) {
	for !m.mu.TryLock() {
		if time.Since(start) > lockSpin {
			m.mu.Lock()
			return
		}
		runtime.Gosched()
	}
}

// decideLocked is decide's critical section; callers hold mu. Per
// access it runs the decision loop's step (policy, accounting, shadow
// state, one ledger record written into its slot in the ring —
// core.Decider) and fills the report; the query's accounting and ledger
// records are flushed once, by End, and then the decisions are
// journaled, before the lock is released. The registry's
// flow metrics are not written here: they read the plane under mu
// when scraped (collect).
func (m *Mediator) decideLocked(rep *QueryReport, accs []access, traceID string, health SiteHealth) (err error) {
	m.t++
	rep.Seq = m.t
	m.dec.Begin(m.t, traceID)
	// A site is asked for its health once per query: the answer reads a
	// breaker under its lock and formats the reason.
	type siteAnswer struct {
		site   string
		ok     bool
		reason string
	}
	var sitesBuf [4]siteAnswer
	sites := sitesBuf[:0]
	i := 0 // accesses decided: all of them, unless one fails
	for ; i < len(accs); i++ {
		a := accs[i]
		obj := a.obj
		// Degraded mode: an unavailable site makes bypass and load
		// impossible, so the policy is not consulted (outage traffic
		// must not distort its learned rate profiles). The access is
		// forced to serve-from-cache or dropped as a failed leg.
		if health != nil {
			k := 0
			for k < len(sites) && sites[k].site != obj.Site {
				k++
			}
			if k == len(sites) {
				ok, reason := health.SiteAvailable(obj.Site)
				sites = append(sites, siteAnswer{obj.Site, ok, reason})
			}
			if !sites[k].ok {
				if err = m.degradedAccess(rep, i, a, sites[k].reason); err != nil {
					break
				}
				continue
			}
		}
		var d core.Decision
		if d, err = m.dec.Access(*obj, a.yield); err != nil {
			break
		}
		rep.Decisions[i] = AccessDecision{
			Object:   obj.ID,
			Table:    a.table,
			Site:     obj.Site,
			Yield:    a.yield,
			Decision: d,
		}
	}
	m.dec.End()
	if m.journal != nil {
		// Journaled in access order before the unlock, so the journal's
		// order is the decisions'.
		for _, d := range rep.Decisions[:i] {
			m.journal.JournalAccess(journalRecord(m.t, d))
		}
	}
	m.objsTouched.Add(int64(i))
	return err
}

// journalRecord is the journal's record of one access decided at t.
func journalRecord(t int64, d AccessDecision) JournalRecord {
	r := JournalRecord{Kind: JournalAccess, T: t, Object: d.Object, Yield: d.Yield, Decision: d.Decision}
	switch {
	case d.Failed:
		r.Kind = JournalFailed
	case d.Forced:
		r.Kind = JournalForced
	}
	return r
}

// degradedAccess handles one access whose owning site is unavailable,
// under the decision lock. Two outcomes, both fully accounted:
//
//   - Object cached → forced hit: the cached (possibly stale) copy is
//     served and charged as a hit, so D_A reconciliation stays exact.
//     The ledger records the forced decision with reason
//     "forced-cache: <detail>" and Stale set.
//   - Object not cached → failed leg: nothing is delivered and
//     nothing is charged. The query's result shrinks by the leg's
//     yield, the ledger records action "failed" with zero yield and
//     WAN cost, and the report carries a per-site error annotation.
func (m *Mediator) degradedAccess(rep *QueryReport, idx int, a access, reason string) error {
	obj, yield := a.obj, a.yield
	if m.policy != nil && m.policy.Contains(obj.ID) {
		full := core.ReasonForcedCache + ": " + reason
		if err := m.dec.Forced(*obj, yield, full); err != nil {
			return err
		}
		rep.Decisions[idx] = AccessDecision{
			Object:   obj.ID,
			Table:    a.table,
			Site:     obj.Site,
			Yield:    yield,
			Decision: core.Hit,
			Forced:   true,
			Reason:   full,
		}
		noteSiteError(rep, obj.Site, reason, 0)
		return nil
	}
	full := core.ReasonFailedLeg + ": " + reason
	m.dec.Failed(*obj, full)
	// The client never receives this leg's bytes: shrink the result so
	// delivered bytes still equal the accounting's D_A increment.
	rep.Result.Bytes -= yield
	if rep.Result.Bytes < 0 {
		rep.Result.Bytes = 0
	}
	rep.Decisions[idx] = AccessDecision{
		Object: obj.ID,
		Table:  a.table,
		Site:   obj.Site,
		Yield:  yield,
		Failed: true,
		Reason: full,
	}
	noteSiteError(rep, obj.Site, reason, yield)
	return nil
}

// noteSiteError marks the report degraded, aggregating the lost yield
// per site.
func noteSiteError(rep *QueryReport, site, reason string, lost int64) {
	rep.Degraded = true
	for i := range rep.SiteErrors {
		if rep.SiteErrors[i].Site == site {
			rep.SiteErrors[i].LostBytes += lost
			return
		}
	}
	rep.SiteErrors = append(rep.SiteErrors, SiteError{Site: site, Reason: reason, LostBytes: lost})
}

// OneSite is the site that owns every table a statement reads, if one
// does.
func OneSite(b *engine.Bound) (string, bool) {
	site := b.Tables[0].Site
	for _, t := range b.Tables[1:] {
		if t.Site != site {
			return "", false
		}
	}
	return site, true
}

// Subqueries splits a bound multi-table statement into one
// single-table statement per FROM table, as the paper's mediator ships
// sub-queries to each member database: each subquery projects the
// columns the mediator needs from that table (its referenced columns,
// including join keys) and applies the table's local literal
// predicates. Cross-table conditions are evaluated at the mediator
// after the per-site results return.
func Subqueries(b *engine.Bound) []*sqlparse.SelectStmt {
	out := make([]*sqlparse.SelectStmt, len(b.Tables))
	refs := b.ReferencedColumns()
	for i, t := range b.Tables {
		sub := &sqlparse.SelectStmt{
			From: []sqlparse.TableRef{{Name: t.Name}},
		}
		for _, r := range refs {
			if r.TableIdx != i {
				continue
			}
			sub.Items = append(sub.Items, sqlparse.SelectItem{
				Col: sqlparse.ColRef{Column: r.Col.Name},
			})
		}
		if len(sub.Items) == 0 {
			sub.Items = []sqlparse.SelectItem{{Star: true}}
		}
		for _, c := range b.Conds {
			if c.Right.Col != nil || c.Left.TableIdx != i {
				continue
			}
			cond := c.Cond
			cond.Left = sqlparse.ColRef{Column: c.Left.Col.Name}
			sub.Where = append(sub.Where, cond)
		}
		out[i] = sub
	}
	return out
}
