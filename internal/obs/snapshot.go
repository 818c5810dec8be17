package obs

import (
	"math"
	"sort"
)

// Snapshot is a point-in-time, JSON-serializable view of a registry.
// Entries are sorted by (name, label), so two snapshots of the same
// registry diff cleanly and render deterministically.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// CounterSnap is one counter's value. Family members carry their
// label; plain counters have an empty label.
type CounterSnap struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge's value.
type GaugeSnap struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Value int64  `json:"value"`
}

// HistogramSnap is one histogram's buckets. Counts has one entry per
// bound plus a final overflow bucket.
type HistogramSnap struct {
	Name   string  `json:"name"`
	Label  string  `json:"label,omitempty"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Mean returns the average observation, or 0 with no observations.
func (h HistogramSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0, 1]): the bound of the bucket containing the q·Count-th
// observation. Observations in the overflow bucket report the last
// bound (the histogram cannot see beyond it).
func (h HistogramSnap) Quantile(q float64) int64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Quantiles returns the upper-bound estimates for several quantiles
// at once (one pass per quantile over an already-consistent snap).
func (h HistogramSnap) Quantiles(qs ...float64) []int64 {
	out := make([]int64, len(qs))
	for i, q := range qs {
		out[i] = h.Quantile(q)
	}
	return out
}

// Sub returns the delta histogram cur − prev: the observations that
// landed between the two snapshots. Bounds must match (the zero prev
// subtracts nothing); mismatched layouts return cur unchanged, so a
// daemon restart between scrapes degrades to an absolute window
// rather than panicking.
func (h HistogramSnap) Sub(prev HistogramSnap) HistogramSnap {
	if len(prev.Counts) != len(h.Counts) || len(prev.Bounds) != len(h.Bounds) {
		return h
	}
	d := HistogramSnap{
		Name:   h.Name,
		Label:  h.Label,
		Bounds: h.Bounds,
		Counts: make([]int64, len(h.Counts)),
		Sum:    h.Sum - prev.Sum,
		Count:  h.Count - prev.Count,
	}
	for i := range h.Counts {
		d.Counts[i] = h.Counts[i] - prev.Counts[i]
	}
	return d
}

// Snapshot runs the registry's collectors and captures every metric.
// Snapshots are serialized: a metric a collector stores reads, in this
// snapshot, as the collector stored it. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.snap.Lock()
	defer r.snap.Unlock()
	r.mu.Lock()
	collectors := make([]func(), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	// Collectors run unlocked: they re-enter the registry to refresh
	// gauges/histograms, which would deadlock under r.mu.
	for _, fn := range collectors {
		fn()
	}
	s.Counters = members(r, r.counters, func(c *Counter, name, label string) CounterSnap {
		return CounterSnap{Name: name, Label: label, Value: c.Value()}
	})
	s.Gauges = members(r, r.gauges, func(g *Gauge, name, label string) GaugeSnap {
		return GaugeSnap{Name: name, Label: label, Value: g.Value()}
	})
	s.Histograms = members(r, r.hists, (*Histogram).snap)
	return s
}

// members snaps every member of fams, in (name, label) order.
func members[M, S any](r *Registry, fams map[string]*Family[M], snap func(m *M, name, label string) S) []S {
	r.mu.Lock()
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	list := make([]*Family[M], len(names))
	for i, name := range names {
		list[i] = fams[name]
	}
	r.mu.Unlock()
	var out []S
	var labels []string
	for i, f := range list {
		f.mu.RLock()
		labels = labels[:0]
		for label := range f.items {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		for _, label := range labels {
			out = append(out, snap(f.items[label], names[i], label))
		}
		f.mu.RUnlock()
	}
	return out
}

// CounterValue looks up a counter (or family member) by name and
// label; missing entries return 0.
func (s Snapshot) CounterValue(name, label string) int64 {
	for _, c := range s.Counters {
		if c.Name == name && c.Label == label {
			return c.Value
		}
	}
	return 0
}

// CounterTotal sums all labels of a counter name (for families).
func (s Snapshot) CounterTotal(name string) int64 {
	var total int64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// GaugeValue looks up a gauge by name; missing entries return 0.
func (s Snapshot) GaugeValue(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name && g.Label == "" {
			return g.Value
		}
	}
	return 0
}

// GaugeLabeled looks up a gauge-family member by name and label;
// missing entries return 0.
func (s Snapshot) GaugeLabeled(name, label string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name && g.Label == label {
			return g.Value
		}
	}
	return 0
}

// HistogramSnap looks up a histogram by name and label.
func (s Snapshot) HistogramSnap(name, label string) (HistogramSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name && h.Label == label {
			return h, true
		}
	}
	return HistogramSnap{}, false
}
