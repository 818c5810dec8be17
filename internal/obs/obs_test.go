package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("counter handle not stable across lookups")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5122 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	s := r.Snapshot()
	hs, ok := s.HistogramSnap("lat", "")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	want := []int64{2, 2, 0, 1} // ≤10: {1,10}; ≤100: {11,100}; ≤1000: none; overflow: 5000
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if m := hs.Mean(); m != 5122.0/5 {
		t.Fatalf("mean = %f", m)
	}
	// Median falls in the ≤100 bucket; p99 is clamped to the last bound
	// (overflow observations are beyond the histogram's sight).
	if q := hs.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %d, want 100", q)
	}
	if q := hs.Quantile(0.99); q != 1000 {
		t.Fatalf("p99 = %d, want 1000", q)
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("rpc_errors")
	f.Add("siteA", 2)
	f.Get("siteB").Inc()
	hf := r.HistogramFamily("rpc_latency", []int64{10, 100})
	hf.Observe("siteA", 50)

	s := r.Snapshot()
	if got := s.CounterValue("rpc_errors", "siteA"); got != 2 {
		t.Fatalf("siteA = %d, want 2", got)
	}
	if got := s.CounterTotal("rpc_errors"); got != 3 {
		t.Fatalf("total = %d, want 3", got)
	}
	if _, ok := s.HistogramSnap("rpc_latency", "siteA"); !ok {
		t.Fatal("labeled histogram missing")
	}

	gf := r.GaugeFamily("breaker_state")
	gf.Set("siteA", 2)
	gf.Get("siteB").Set(-1)
	gf.Set("siteA", 1) // overwrite, not accumulate
	s = r.Snapshot()
	if got := s.GaugeLabeled("breaker_state", "siteA"); got != 1 {
		t.Fatalf("siteA gauge = %d, want 1", got)
	}
	if got := s.GaugeLabeled("breaker_state", "siteB"); got != -1 {
		t.Fatalf("siteB gauge = %d, want -1", got)
	}
	var nilGF *GaugeFamily
	nilGF.Set("x", 1) // nil family must be a no-op
	if nilGF.Get("x") != nil {
		t.Fatal("nil gauge family should hand out nil gauges")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	f := r.CounterFamily("a")
	f.Add("z", 1)
	f.Add("m", 1)
	s := r.Snapshot()
	var keys []string
	for _, c := range s.Counters {
		keys = append(keys, c.Name+"/"+c.Label)
	}
	want := []string{"a/", "a/m", "a/z", "b/"}
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Fatalf("order = %v, want %v", keys, want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Histogram("h", []int64{1, 2}).Observe(1)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.CounterValue("c", "") != 3 {
		t.Fatalf("round trip lost counter: %+v", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every accessor on a nil registry returns a nil handle whose
	// methods are no-ops; none of this may panic.
	r.Counter("x").Add(1)
	r.Counter("x").Inc()
	r.Gauge("g").Set(3)
	r.Histogram("h", nil).Observe(5)
	r.CounterFamily("f").Add("l", 1)
	r.CounterFamily("f").Get("l").Inc()
	r.HistogramFamily("hf", nil).Observe("l", 1)
	r.HistogramFamily("hf", nil).Get("l").Observe(1)
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Fatalf("nil registry snapshot has %d counters", n)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.CounterFamily("f").Add("l", 1)
				r.Histogram("h", nil).Observe(int64(j))
				r.HistogramFamily("hf", nil).Observe("l", int64(j))
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.CounterValue("c", "") != 8000 || s.CounterValue("f", "l") != 8000 {
		t.Fatalf("lost increments: %+v", s.Counters)
	}
	h, _ := s.HistogramSnap("h", "")
	if h.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(50, 2, 4)
	want := []int64{50, 100, 200, 400}
	for i, w := range want {
		if b[i] != w {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
	// Degenerate parameters are clamped sane.
	if b := ExpBuckets(0, 0, 2); b[0] != 1 || b[1] != 2 {
		t.Fatalf("clamped buckets = %v", b)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnap
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram stats should be zero")
	}
	h := HistogramSnap{Bounds: []int64{10}, Counts: []int64{1, 0}, Count: 1, Sum: 5}
	if h.Quantile(-1) != 10 || h.Quantile(2) != 10 {
		t.Fatal("out-of-range q should clamp")
	}
}
