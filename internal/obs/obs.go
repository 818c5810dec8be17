// Package obs is the federation's observability substrate: a
// dependency-free, concurrency-safe metrics registry, the 64-bit
// trace ids that join one query's ledger records and flight-recorder
// exemplars across daemons (the per-query record itself is
// obs/flightrec's), and JSONL, the one append-only log both records
// are written to (-ledger-out, -exemplar-out) and ReadJSONL reads.
//
// The paper's whole argument is quantitative — every policy decision
// is justified by the byte flows D_S, D_L, D_C, D_A — so the running
// system carries the same discipline into operations: every layer
// (wire, core, engine, federation) registers counters, gauges, and
// fixed-bucket histograms here, and the proxy serves the registry's
// Snapshot over the wire protocol (in every daemon's MsgScrape reply)
// for `by metrics` to render. Every metric is a member of one generic
// Family, keyed by label; a plain metric is its family's unlabeled
// member.
//
// Design constraints:
//
//   - Hot-path operations (Counter.Add, Gauge.Set, Histogram.Observe,
//     Family.Get on an existing label) are lock-free or read-locked
//     and allocation-free; see bench_test.go, which asserts zero
//     allocations.
//   - Every handle type is nil-safe: methods on a nil *Counter,
//     *Gauge, *Histogram, or *Registry are no-ops. Instrumented code
//     therefore holds plain handles and never branches on "is
//     telemetry enabled".
//   - Snapshot returns plain JSON-serializable values ordered
//     deterministically by (name, label), so snapshots diff cleanly
//     and travel over the wire unchanged.
package obs

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Store sets the count to n: a collector's copy of a count kept
// elsewhere, which only grows. No-op on a nil counter.
func (c *Counter) Store(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 observations
// (latencies in microseconds, sizes in bytes, ...). Bucket i counts
// observations ≤ Bounds[i]; one implicit overflow bucket counts the
// rest. Observation is a linear scan over the (small, fixed) bound
// slice — allocation-free and cheap for the ≤ 32 buckets used here.
type Histogram struct {
	bounds []int64 // sorted upper bounds; immutable after construction
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// newHistogram builds a histogram over sorted upper bounds.
func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v — a batch that took n·v and is
// reported as its mean — with one bucket search.
func (h *Histogram) ObserveN(v, n int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.sum.Add(v * n)
	h.n.Add(n)
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Snap captures the histogram as a HistogramSnap (no name/label).
// Callers computing several quantiles should snap once and query the
// snap, so every percentile reads the same consistent view.
func (h *Histogram) Snap() HistogramSnap {
	if h == nil {
		return HistogramSnap{}
	}
	return h.snap("", "")
}

// Quantile returns an upper-bound estimate of the q-quantile of the
// live histogram (see HistogramSnap.Quantile — the one shared quantile
// implementation). Returns 0 on a nil or empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.snap("", "").Quantile(q)
}

// snap captures the histogram under no lock; counts are individually
// atomic, so a snapshot taken during concurrent observation is a
// consistent-enough view (sum/count may lead the buckets by the
// in-flight observations).
func (h *Histogram) snap(name, label string) HistogramSnap {
	s := HistogramSnap{
		Name:   name,
		Label:  label,
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExpBuckets returns n exponentially growing bucket bounds starting
// at first and multiplying by factor: first, first·factor, ....
func ExpBuckets(first int64, factor float64, n int) []int64 {
	if first < 1 {
		first = 1
	}
	if factor <= 1 {
		factor = 2
	}
	out := make([]int64, 0, n)
	v := float64(first)
	for i := 0; i < n; i++ {
		out = append(out, int64(v))
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 50µs to ~26s in ×2 steps — RPC and
// query latencies in microseconds.
func DefaultLatencyBuckets() []int64 { return ExpBuckets(50, 2, 20) }

// Family is a set of metrics of one kind sharing one name, keyed by a
// label value ("per-site", "per-decision", ...). A plain metric is its
// family's unlabeled member, Get("").
type Family[M any] struct {
	mu      sync.RWMutex
	items   map[string]*M
	bounds  []int64 // a histogram family's bucket layout; nil otherwise
	newItem func(bounds []int64) *M
}

// CounterFamily, GaugeFamily and HistogramFamily are the families of
// each kind; every member of a HistogramFamily has its bucket layout.
type (
	CounterFamily   = Family[Counter]
	GaugeFamily     = Family[Gauge]
	HistogramFamily = Family[Histogram]
)

// Get returns the member for a label, creating it on first use.
// Lookups of existing labels take only a read lock and do not
// allocate. Returns nil on a nil family.
func (f *Family[M]) Get(label string) *M {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	m := f.items[label]
	f.mu.RUnlock()
	if m != nil {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m = f.items[label]; m == nil {
		m = f.newItem(f.bounds)
		f.items[label] = m
	}
	return m
}

// Registry holds named metric families, one map per kind. All
// accessors are get-or-create and safe for concurrent use; handles are
// stable, so callers cache them once and hit only the atomic on the hot
// path. A nil *Registry is a valid no-op registry: every accessor
// returns a nil handle, whose methods are in turn no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*CounterFamily
	gauges   map[string]*GaugeFamily
	hists    map[string]*HistogramFamily

	// collectors run (without mu) at the start of every Snapshot, so
	// pull-style sources (runtime stats, the decision plane's flows) can
	// refresh their metrics lazily instead of on a timer or per event.
	collectors []func()
	// snap serializes Snapshots: what one snapshot's collectors stored
	// is what it reads, not another snapshot's newer values.
	snap sync.Mutex
	// runtimeEnabled guards EnableRuntimeStats idempotency.
	runtimeEnabled bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*CounterFamily),
		gauges:   make(map[string]*GaugeFamily),
		hists:    make(map[string]*HistogramFamily),
	}
}

// RegisterCollector adds a function that Snapshot invokes (without
// holding the registry lock) before capturing metric values.
// Collectors may freely touch the registry but must not take a
// Snapshot; Snapshots are serialized, so one collector never runs
// beside another. No-op on a nil registry.
func (r *Registry) RegisterCollector(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.CounterFamily(name).Get("") }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeFamily(name).Get("") }

// Histogram returns the named histogram, creating it with the given
// bounds on first use (nil bounds select DefaultLatencyBuckets). The
// first creation of the name, plain or family, fixes the bucket layout.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	return r.HistogramFamily(name, bounds).Get("")
}

// CounterFamily returns the named counter family, creating it on
// first use.
func (r *Registry) CounterFamily(name string) *CounterFamily {
	if r == nil {
		return nil
	}
	return family(r, r.counters, name, nil, func([]int64) *Counter { return new(Counter) })
}

// GaugeFamily returns the named gauge family, creating it on first
// use.
func (r *Registry) GaugeFamily(name string) *GaugeFamily {
	if r == nil {
		return nil
	}
	return family(r, r.gauges, name, nil, func([]int64) *Gauge { return new(Gauge) })
}

// HistogramFamily returns the named histogram family, creating it
// with the given bounds on first use (nil bounds select
// DefaultLatencyBuckets).
func (r *Registry) HistogramFamily(name string, bounds []int64) *HistogramFamily {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	return family(r, r.hists, name, bounds, newHistogram)
}

// family returns fams' named family, creating it on first use with a
// copy of bounds and newItem as its members' constructor.
func family[M any](r *Registry, fams map[string]*Family[M], name string, bounds []int64, newItem func([]int64) *M) *Family[M] {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := fams[name]
	if f == nil {
		f = &Family[M]{items: make(map[string]*M), bounds: slices.Clone(bounds), newItem: newItem}
		fams[name] = f
	}
	return f
}
