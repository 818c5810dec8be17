// Package flightrec is the federation's always-on flight recorder:
// a bounded, lock-free ring of full per-query exemplars captured for
// every query that breaches a latency threshold, errors, or is served
// degraded — plus reservoir-sampled "normal" exemplars for contrast.
//
// The paper argues about byte flows; operations argue about tails. A
// p99 violation can originate in the decision plane (mediator lock
// wait), a WAN leg, a connection-pool wait, result encoding, or the
// runtime itself (GC pause) — and aggregate histograms cannot say
// which. The recorder keeps the evidence: each exemplar carries the
// query's decision record, per-leg wire timings, phase durations, a
// runtime snapshot, and a computed critical-path attribution naming
// the dominant cause.
//
// Design constraints mirror package obs and obs/ledger:
//
//   - The non-exceeding fast path (Begin → timings → Finish below
//     threshold, no error, not degraded, reservoir disabled) is
//     allocation-free in steady state: captures are pooled and their
//     slices are reused. bench_test.go asserts zero allocations.
//   - Publication is the slow path and may allocate freely (copying
//     the capture, formatting ids) — but it runs for one healthy query in
//     SampleEvery, so it must not stop the world: the runtime snapshot is
//     read by obs.RuntimeReader (runtime/metrics and debug.ReadGCStats),
//     never from runtime.ReadMemStats.
//   - A nil *Recorder and nil *Capture are valid no-ops, so call
//     sites thread them unconditionally.
package flightrec

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bypassyield/internal/obs"
)

// Exemplar outcomes.
const (
	OutcomeSlow     = "slow"     // latency ≥ threshold
	OutcomeError    = "error"    // query failed
	OutcomeDegraded = "degraded" // served with forced-stale or failed legs
	OutcomeNormal   = "normal"   // reservoir-sampled healthy query
)

// Attribution cause labels (see attrib.go). WAN legs use "wan:<site>".
const (
	CauseExecute    = "server-execute"
	CausePoolWait   = "pool-wait"
	CauseDecideWait = "decide-wait"
	CauseDecide     = "decide"
	CauseEncode     = "encode"
	CauseRuntimeGC  = "runtime-gc"
	CauseOther      = "other"
)

// LegRec is one WAN leg's timing inside an exemplar.
type LegRec struct {
	// Site is the remote federation member.
	Site string `json:"site"`
	// Kind is "fetch" (object load) or "subquery" (bypass ship: a
	// sub-query, or the whole statement).
	Kind string `json:"kind"`
	// Object is the object id of a fetch; "" for a subquery.
	Object string `json:"object,omitempty"`
	// StartUS is the leg's start offset from query start, microseconds.
	StartUS int64 `json:"start_us"`
	// PoolWaitUS is time spent waiting for a pooled connection.
	PoolWaitUS int64 `json:"pool_wait_us"`
	// RPCUS is the wire round-trip (write request, read response).
	RPCUS int64 `json:"rpc_us"`
	// WallUS is the leg's total wall time (≥ PoolWaitUS + RPCUS;
	// includes a failed attempt before the retry).
	WallUS int64 `json:"wall_us"`
	// Err is the transport error, if the leg failed.
	Err string `json:"err,omitempty"`
}

// DecisionRec is one per-object cache decision inside an exemplar.
type DecisionRec struct {
	Object string `json:"object"`
	Site   string `json:"site"`
	Yield  int64  `json:"yield"`
	Action string `json:"action"`
	Reason string `json:"reason,omitempty"`
}

// BreakerRec is one site's circuit-breaker state at capture time.
type BreakerRec struct {
	Site  string `json:"site"`
	State string `json:"state"`
}

// RuntimeSnap is the Go runtime's state when the exemplar published.
type RuntimeSnap struct {
	Goroutines     int   `json:"goroutines"`
	HeapAllocBytes int64 `json:"heap_alloc_bytes"`
	GCCycles       int64 `json:"gc_cycles"`
	// LastGCPauseUS is the most recent stop-the-world pause.
	LastGCPauseUS int64 `json:"last_gc_pause_us"`
	// LastGCUnixNano is when the last GC cycle ended (0 = never).
	LastGCUnixNano int64 `json:"last_gc_unix_nano"`
}

// CausePoint is one attributed slice of an exemplar's duration.
type CausePoint struct {
	Cause string `json:"cause"`
	US    int64  `json:"us"`
}

// Exemplar is one recorded query: identity, phase timings, the WAN
// legs, the decision record, and the computed attribution.
type Exemplar struct {
	// Seq is the recorder sequence number (1-based).
	Seq uint64 `json:"seq"`
	// Trace is the query's 16-hex trace id ("" when untraced).
	Trace string `json:"trace,omitempty"`
	// SQL is the query text.
	SQL string `json:"sql,omitempty"`
	// Start is the query's wall-clock start.
	Start time.Time `json:"start"`
	// DurUS is the total query duration in microseconds.
	DurUS int64 `json:"dur_us"`
	// Outcome is slow | error | degraded | normal.
	Outcome string `json:"outcome"`
	// Err is the query error, for error exemplars.
	Err string `json:"err,omitempty"`

	// Phase timings (microseconds). ExecUS is server-side statement
	// execution; DecideWaitUS is the time blocked on the decision
	// lock; DecideUS is the decision work itself; EncodeUS is result
	// serialization back to the client.
	ExecUS       int64 `json:"exec_us"`
	DecideWaitUS int64 `json:"decide_wait_us"`
	DecideUS     int64 `json:"decide_us"`
	EncodeUS     int64 `json:"encode_us"`

	Legs      []LegRec      `json:"legs,omitempty"`
	Decisions []DecisionRec `json:"decisions,omitempty"`
	Breakers  []BreakerRec  `json:"breakers,omitempty"`
	Runtime   RuntimeSnap   `json:"runtime"`

	// Cause is the dominant attributed cause; CauseUS its share.
	Cause   string `json:"cause,omitempty"`
	CauseUS int64  `json:"cause_us,omitempty"`
	// Attribution is the full breakdown, largest first.
	Attribution []CausePoint `json:"attribution,omitempty"`
}

// Config sizes a Recorder.
type Config struct {
	// Capacity is the exemplar ring size (≤ 0 → 256).
	Capacity int
	// Threshold is the latency above which every query is captured
	// (≤ 0 → 250ms).
	Threshold time.Duration
	// SampleEvery publishes every Nth healthy query as a "normal"
	// exemplar for contrast (≤ 0 disables the reservoir — required
	// for a fully allocation-free fast path).
	SampleEvery int
}

// DefaultConfig is the always-on daemon configuration.
func DefaultConfig() Config {
	return Config{Capacity: 256, Threshold: 250 * time.Millisecond, SampleEvery: 256}
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.Threshold <= 0 {
		c.Threshold = 250 * time.Millisecond
	}
	return c
}

// Recorder is the bounded exemplar ring. Construct with New; nil is a
// valid no-op recorder.
type Recorder struct {
	cfg      Config
	slots    []slot
	seq      atomic.Uint64 // published exemplars
	observed atomic.Uint64 // all finished captures
	pool     sync.Pool
	sink     func(Exemplar)  // set before recording starts
	annotate func(*Exemplar) // set before recording starts

	runtimeMu sync.Mutex
	runtime   obs.RuntimeReader

	// Registry handles (nil-safe when no registry was attached).
	exemplars   *obs.CounterFamily // obs.exemplars{outcome}
	tailCause   *obs.CounterFamily // obs.tail_cause{cause} — dominant
	tailCauseUS *obs.CounterFamily // obs.tail_cause_us{cause} — all µs
}

type slot struct {
	ex atomic.Pointer[Exemplar]
}

// New returns a recorder. r may be nil (no counters exported).
func New(cfg Config, r *obs.Registry) *Recorder {
	cfg = cfg.withDefaults()
	rec := &Recorder{
		cfg:         cfg,
		slots:       make([]slot, cfg.Capacity),
		exemplars:   r.CounterFamily("obs.exemplars"),
		tailCause:   r.CounterFamily(tailCauseName),
		tailCauseUS: r.CounterFamily(tailCauseUSName),
	}
	rec.pool.New = func() any { return new(Capture) }
	return rec
}

// SetSink attaches a sink receiving every published exemplar, in
// addition to the ring (e.g. an obs.JSONL's Append). It must tolerate
// concurrent calls. Call before recording starts. Nil-safe.
func (r *Recorder) SetSink(s func(Exemplar)) {
	if r == nil {
		return
	}
	r.sink = s
}

// SetAnnotate attaches a hook run on every exemplar before it
// publishes — the proxy uses it to stamp breaker states. Call before
// recording starts. Nil-safe.
func (r *Recorder) SetAnnotate(fn func(*Exemplar)) {
	if r == nil {
		return
	}
	r.annotate = fn
}

// ThresholdUS returns the capture threshold in microseconds.
func (r *Recorder) ThresholdUS() int64 {
	if r == nil {
		return 0
	}
	return r.cfg.Threshold.Microseconds()
}

// Cap returns the ring capacity (0 on nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Observed returns the number of finished captures (published or not).
func (r *Recorder) Observed() uint64 {
	if r == nil {
		return 0
	}
	return r.observed.Load()
}

// Published returns the number of exemplars ever published.
func (r *Recorder) Published() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Begin starts a capture. Returns nil (a valid no-op capture) on a
// nil recorder. Allocation-free in steady state: captures are pooled.
func (r *Recorder) Begin() *Capture {
	if r == nil {
		return nil
	}
	c := r.pool.Get().(*Capture)
	c.start = time.Now()
	return c
}

// Finish completes a capture, publishing an exemplar when the query
// erred, was degraded, breached the threshold, or hit the reservoir —
// and recycling the capture either way. Nil-safe in both arguments.
func (r *Recorder) Finish(c *Capture, err error) {
	if r == nil || c == nil {
		return
	}
	n := r.observed.Add(1)
	dur := time.Since(c.start)
	outcome := ""
	switch {
	case err != nil:
		outcome = OutcomeError
	case c.degraded:
		outcome = OutcomeDegraded
	case dur >= r.cfg.Threshold:
		outcome = OutcomeSlow
	case r.cfg.SampleEvery > 0 && n%uint64(r.cfg.SampleEvery) == 0:
		outcome = OutcomeNormal
	}
	if outcome != "" {
		r.publish(c, err, dur, outcome)
	}
	c.reset()
	r.pool.Put(c)
}

// publish copies the capture into an immutable Exemplar, attributes
// its critical path, and stores it in the ring. Slow path: allocates.
func (r *Recorder) publish(c *Capture, err error, dur time.Duration, outcome string) {
	e := &Exemplar{
		Trace:        obs.FormatID(c.trace),
		SQL:          c.sql,
		Start:        c.start,
		DurUS:        dur.Microseconds(),
		Outcome:      outcome,
		ExecUS:       c.execUS,
		DecideWaitUS: c.decideWaitUS,
		DecideUS:     c.decideUS,
		EncodeUS:     c.encodeUS,
	}
	if err != nil {
		e.Err = err.Error()
	}
	c.mu.Lock()
	if len(c.legs) > 0 {
		e.Legs = make([]LegRec, len(c.legs))
		copy(e.Legs, c.legs)
	}
	c.mu.Unlock()
	if len(c.decisions) > 0 {
		e.Decisions = make([]DecisionRec, len(c.decisions))
		copy(e.Decisions, c.decisions)
	}
	e.Runtime = r.readRuntime()
	attribute(e)
	if r.annotate != nil {
		r.annotate(e)
	}
	seq := r.seq.Add(1)
	e.Seq = seq
	r.slots[(seq-1)%uint64(len(r.slots))].ex.Store(e)

	r.exemplars.Get(outcome).Add(1)
	if outcome != OutcomeNormal {
		r.tailCause.Get(e.Cause).Add(1)
		for _, p := range e.Attribution {
			r.tailCauseUS.Get(p.Cause).Add(p.US)
		}
	}
	if r.sink != nil {
		r.sink(*e)
	}
}

// Snapshot returns the retained exemplars oldest-first. Slots claimed
// but not yet published, or overwritten by a ring wrap mid-read, are
// skipped. Nil on a nil recorder.
func (r *Recorder) Snapshot() []Exemplar {
	if r == nil {
		return nil
	}
	seq := r.seq.Load()
	if seq == 0 {
		return nil
	}
	n := uint64(len(r.slots))
	lo := uint64(1)
	if seq > n {
		lo = seq - n + 1
	}
	out := make([]Exemplar, 0, seq-lo+1)
	for s := lo; s <= seq; s++ {
		ex := r.slots[(s-1)%n].ex.Load()
		if ex == nil || ex.Seq != s {
			continue
		}
		out = append(out, *ex)
	}
	return out
}

// readRuntime reads the runtime state an exemplar carries, without
// stopping the world (obs.RuntimeReader). Publishers may be concurrent;
// runtimeMu serializes them.
func (r *Recorder) readRuntime() RuntimeSnap {
	r.runtimeMu.Lock()
	defer r.runtimeMu.Unlock()
	rt := r.runtime.Read()
	s := RuntimeSnap{Goroutines: rt.Goroutines, HeapAllocBytes: rt.HeapAllocBytes, GCCycles: rt.GCCycles}
	if len(rt.Pauses) > 0 {
		s.LastGCUnixNano = rt.LastGC.UnixNano()
		s.LastGCPauseUS = rt.Pauses[0].Microseconds() // most recent first
	}
	return s
}

// Capture accumulates one query's evidence between Begin and Finish.
// All methods are nil-safe; Leg is safe for concurrent use (parallel
// WAN legs record from their own goroutines).
type Capture struct {
	start        time.Time
	sql          string
	trace        uint64
	degraded     bool
	execUS       int64
	decideWaitUS int64
	decideUS     int64
	encodeUS     int64
	decisions    []DecisionRec
	mu           sync.Mutex
	legs         []LegRec
}

func (c *Capture) reset() {
	c.sql = ""
	c.trace = 0
	c.degraded = false
	c.execUS, c.decideWaitUS, c.decideUS, c.encodeUS = 0, 0, 0, 0
	c.decisions = c.decisions[:0]
	c.legs = c.legs[:0]
}

// Now returns the capture-relative clock in microseconds (leg start
// offsets). 0 on a nil capture.
func (c *Capture) Now() int64 {
	if c == nil {
		return 0
	}
	return time.Since(c.start).Microseconds()
}

// SetQuery records the query's identity.
func (c *Capture) SetQuery(sql string, trace uint64) {
	if c == nil {
		return
	}
	c.sql = sql
	c.trace = trace
}

// SetDegraded marks the capture as a degraded result.
func (c *Capture) SetDegraded(v bool) {
	if c == nil {
		return
	}
	c.degraded = v
}

// SetMediation records the mediation phase timings (microseconds).
func (c *Capture) SetMediation(execUS, decideWaitUS, decideUS int64) {
	if c == nil {
		return
	}
	c.execUS = execUS
	c.decideWaitUS = decideWaitUS
	c.decideUS = decideUS
}

// SetEncodeUS records the result-encoding duration.
func (c *Capture) SetEncodeUS(us int64) {
	if c == nil {
		return
	}
	c.encodeUS = us
}

// Decision appends one per-object cache decision. Strings must be
// interned constants or pre-existing ids (no per-call formatting), so
// appending does not allocate beyond slice growth.
func (c *Capture) Decision(object, site, action, reason string, yield int64) {
	if c == nil {
		return
	}
	c.decisions = append(c.decisions, DecisionRec{
		Object: object, Site: site, Yield: yield, Action: action, Reason: reason,
	})
}

// Leg appends one WAN leg's timing. Safe for concurrent use.
func (c *Capture) Leg(site, kind, object string, startUS, poolWaitUS, rpcUS, wallUS int64, err error) {
	if c == nil {
		return
	}
	rec := LegRec{
		Site: site, Kind: kind, Object: object,
		StartUS: startUS, PoolWaitUS: poolWaitUS, RPCUS: rpcUS, WallUS: wallUS,
	}
	c.mu.Lock()
	if err != nil {
		rec.Err = err.Error()
		c.degraded = true // under mu: a query's legs fail concurrently
	}
	c.legs = append(c.legs, rec)
	c.mu.Unlock()
}

// The counter families a recorder attributes its exceedances in, by cause.
const (
	tailCauseName   = "obs.tail_cause"    // exceedances the cause dominated
	tailCauseUSName = "obs.tail_cause_us" // microseconds attributed to it
)

// TailCause is one cause's share of the exceedances recorders
// attributed: how often it dominated one, and its attributed time.
type TailCause struct {
	Cause string `json:"cause"`
	// Dominant counts exceedances where this cause was the largest
	// attributed slice.
	Dominant int64 `json:"dominant"`
	// TotalUS is the microseconds attributed to this cause across all
	// exceedances.
	TotalUS int64 `json:"total_us"`
}

// TailCauses reads the tail-cause counters: by cause, their sum in now
// (which may hold several recorders' counters) less their sum in before,
// ranked by attributed time, then by cause, all-zero causes left out.
// A zero before reads now's totals.
func TailCauses(now, before obs.Snapshot) []TailCause {
	byCause := map[string]TailCause{}
	add := func(s obs.Snapshot, sign int64) {
		for _, c := range s.Counters {
			tc := byCause[c.Label]
			switch c.Name {
			case tailCauseName:
				tc.Dominant += sign * c.Value
			case tailCauseUSName:
				tc.TotalUS += sign * c.Value
			default:
				continue
			}
			tc.Cause = c.Label
			byCause[c.Label] = tc
		}
	}
	add(now, 1)
	add(before, -1)
	var out []TailCause
	for _, tc := range byCause {
		if tc.Dominant != 0 || tc.TotalUS != 0 {
			out = append(out, tc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalUS != out[j].TotalUS {
			return out[i].TotalUS > out[j].TotalUS
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}

// Filter trims exemplars to those matching outcome and trace id
// (""=all) and DurUS ≥ minUS, keeping the most recent limit (≤ 0 = all).
func Filter(exs []Exemplar, outcome, trace string, minUS int64, limit int) []Exemplar {
	out := make([]Exemplar, 0, len(exs))
	for _, e := range exs {
		if outcome != "" && e.Outcome != outcome {
			continue
		}
		if trace != "" && e.Trace != trace {
			continue
		}
		if e.DurUS < minUS {
			continue
		}
		out = append(out, e)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}
