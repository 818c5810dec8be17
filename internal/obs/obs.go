// Package obs is the federation's observability substrate: a
// dependency-free, concurrency-safe metrics registry, and the 64-bit
// trace ids that join one query's ledger records and flight-recorder
// exemplars across daemons (the per-query record itself is
// obs/flightrec's).
//
// The paper's whole argument is quantitative — every policy decision
// is justified by the byte flows D_S, D_L, D_C, D_A — so the running
// system carries the same discipline into operations: every layer
// (wire, core, engine, federation) registers counters, gauges, and
// fixed-bucket histograms here, and the proxy serves the registry's
// Snapshot over the wire protocol (in every daemon's MsgScrape reply)
// for byinspect to render.
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

// DefaultSizeBuckets spans 1KiB to ~1TiB in ×4 steps — yields, frame
// sizes, object sizes in bytes.
func DefaultSizeBuckets() []int64 { return ExpBuckets(1024, 4, 16) }

// CounterFamily is a set of counters sharing one name, keyed by a
// label value ("per-site", "per-decision", ...).
type CounterFamily struct {
	mu    sync.RWMutex
	items map[string]*Counter
}

// Get returns the counter for a label, creating it on first use.
// Lookups of existing labels take only a read lock and do not
// allocate. Returns nil on a nil family.
func (f *CounterFamily) Get(label string) *Counter {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	c := f.items[label]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.items[label]; c == nil {
		c = &Counter{}
		f.items[label] = c
	}
	return c
}

// Add increments the labeled counter by n.
func (f *CounterFamily) Add(label string, n int64) { f.Get(label).Add(n) }

// GaugeFamily is a set of gauges sharing one name, keyed by a label
// value (per-site breaker states, per-site pool sizes, ...).
type GaugeFamily struct {
	mu    sync.RWMutex
	items map[string]*Gauge
}

// Get returns the gauge for a label, creating it on first use.
// Lookups of existing labels take only a read lock and do not
// allocate. Returns nil on a nil family.
func (f *GaugeFamily) Get(label string) *Gauge {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	g := f.items[label]
	f.mu.RUnlock()
	if g != nil {
		return g
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if g = f.items[label]; g == nil {
		g = &Gauge{}
		f.items[label] = g
	}
	return g
}

// Set stores v under the label.
func (f *GaugeFamily) Set(label string, v int64) { f.Get(label).Set(v) }

// HistogramFamily is a set of histograms sharing one name and bucket
// layout, keyed by a label value.
type HistogramFamily struct {
	mu     sync.RWMutex
	bounds []int64
	items  map[string]*Histogram
}

// Get returns the histogram for a label, creating it on first use.
// Returns nil on a nil family.
func (f *HistogramFamily) Get(label string) *Histogram {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	h := f.items[label]
	f.mu.RUnlock()
	if h != nil {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if h = f.items[label]; h == nil {
		h = newHistogram(f.bounds)
		f.items[label] = h
	}
	return h
}

// Observe records an observation under a label.
func (f *HistogramFamily) Observe(label string, v int64) { f.Get(label).Observe(v) }

// Registry holds named metrics. All accessors are get-or-create and
// safe for concurrent use; handles are stable, so callers cache them
// once and hit only the atomic on the hot path. A nil *Registry is a
// valid no-op registry: every accessor returns a nil handle, whose
// methods are in turn no-ops.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	cfamilies map[string]*CounterFamily
	gfamilies map[string]*GaugeFamily
	hfamilies map[string]*HistogramFamily

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
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		cfamilies: make(map[string]*CounterFamily),
		gfamilies: make(map[string]*GaugeFamily),
		hfamilies: make(map[string]*HistogramFamily),
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
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (nil bounds select DefaultLatencyBuckets). The
// first creation fixes the bucket layout.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		if bounds == nil {
			bounds = DefaultLatencyBuckets()
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterFamily returns the named counter family, creating it on
// first use.
func (r *Registry) CounterFamily(name string) *CounterFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.cfamilies[name]
	if f == nil {
		f = &CounterFamily{items: make(map[string]*Counter)}
		r.cfamilies[name] = f
	}
	return f
}

// GaugeFamily returns the named gauge family, creating it on first
// use.
func (r *Registry) GaugeFamily(name string) *GaugeFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.gfamilies[name]
	if f == nil {
		f = &GaugeFamily{items: make(map[string]*Gauge)}
		r.gfamilies[name] = f
	}
	return f
}

// HistogramFamily returns the named histogram family, creating it
// with the given bounds on first use (nil bounds select
// DefaultLatencyBuckets).
func (r *Registry) HistogramFamily(name string, bounds []int64) *HistogramFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.hfamilies[name]
	if f == nil {
		if bounds == nil {
			bounds = DefaultLatencyBuckets()
		}
		b := make([]int64, len(bounds))
		copy(b, bounds)
		f = &HistogramFamily{bounds: b, items: make(map[string]*Histogram)}
		r.hfamilies[name] = f
	}
	return f
}
