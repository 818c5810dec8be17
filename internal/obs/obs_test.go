package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
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
	f.Get("siteA").Add(2)
	f.Get("siteB").Inc()
	hf := r.HistogramFamily("rpc_latency", []int64{10, 100})
	hf.Get("siteA").Observe(50)

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
	gf.Get("siteA").Set(2)
	gf.Get("siteB").Set(-1)
	gf.Get("siteA").Set(1) // overwrite, not accumulate
	s = r.Snapshot()
	if got := s.GaugeLabeled("breaker_state", "siteA"); got != 1 {
		t.Fatalf("siteA gauge = %d, want 1", got)
	}
	if got := s.GaugeLabeled("breaker_state", "siteB"); got != -1 {
		t.Fatalf("siteB gauge = %d, want -1", got)
	}
	var nilGF *GaugeFamily
	nilGF.Get("x").Set(1) // nil family must be a no-op
	if nilGF.Get("x") != nil {
		t.Fatal("nil gauge family should hand out nil gauges")
	}
}

// TestPlainIsUnlabeledMember: a plain metric is its family's unlabeled
// member, one handle and one snapshot entry, and a histogram's bounds are
// fixed by whichever of the two calls comes first.
func TestPlainIsUnlabeledMember(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.CounterFamily("c").Get("") {
		t.Error("Counter and CounterFamily.Get(\"\") are different handles")
	}
	if r.GaugeFamily("g").Get("") != r.Gauge("g") {
		t.Error("Gauge and GaugeFamily.Get(\"\") are different handles")
	}
	if r.Histogram("h", []int64{1}) != r.HistogramFamily("h", []int64{2}).Get("") {
		t.Error("Histogram and HistogramFamily.Get(\"\") are different handles")
	}
	r.HistogramFamily("hf", []int64{3}).Get("").Observe(1)
	r.Histogram("hf", []int64{4}).Observe(1)
	r.Counter("c").Inc()
	r.CounterFamily("c").Get("").Inc()
	r.Gauge("g").Set(5)

	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0] != (CounterSnap{Name: "c", Value: 2}) {
		t.Errorf("counters = %+v, want one c = 2", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0] != (GaugeSnap{Name: "g", Value: 5}) {
		t.Errorf("gauges = %+v, want one g = 5", s.Gauges)
	}
	if len(s.Histograms) != 2 {
		t.Fatalf("histograms = %+v, want h and hf", s.Histograms)
	}
	for i, want := range []struct {
		name  string
		bound int64
		count int64
	}{{"h", 1, 0}, {"hf", 3, 2}} {
		h := s.Histograms[i]
		if h.Name != want.name || h.Label != "" || len(h.Bounds) != 1 || h.Bounds[0] != want.bound || h.Count != want.count {
			t.Errorf("histogram %d = %+v, want %s with bounds [%d] and %d observations", i, h, want.name, want.bound, want.count)
		}
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	f := r.CounterFamily("a")
	f.Get("z").Add(1)
	f.Get("m").Add(1)
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

// TestSnapshotJSONRoundTrip pins the scrape's snapshot bytes, from a
// registry holding a plain and a labeled member of each kind, against
// testdata/snapshot.json (rewritten by -update-golden), and decodes them
// back.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.CounterFamily("c").Get("siteA").Add(2)
	r.CounterFamily("a.f").Get("siteB").Add(1)
	r.Gauge("g").Set(-7)
	r.GaugeFamily("g").Get("siteA").Set(4)
	r.Histogram("h", []int64{2, 1}).Observe(1)
	r.HistogramFamily("h", []int64{2, 1}).Get("siteA").Observe(5)
	r.HistogramFamily("b.hf", nil).Get("siteB").Observe(60)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "snapshot.json")
	if *updateGolden {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if string(b) != string(want) {
		t.Fatalf("snapshot JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", b, want)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.CounterValue("c", "") != 3 || got.CounterValue("c", "siteA") != 2 {
		t.Fatalf("round trip lost counters: %+v", got)
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
	r.CounterFamily("f").Get("l").Add(1)
	r.CounterFamily("f").Get("l").Inc()
	r.HistogramFamily("hf", nil).Get("l").Observe(1)
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
				r.CounterFamily("f").Get("l").Add(1)
				r.Histogram("h", nil).Observe(int64(j))
				r.HistogramFamily("hf", nil).Get("l").Observe(int64(j))
				r.Gauge("g").Add(1)
				// New labels, created while other goroutines read.
				r.GaugeFamily("gf").Get(strconv.Itoa(j % 10)).Set(int64(j))
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
	if s.GaugeValue("g") != 8000 || len(s.Gauges) != 11 {
		t.Fatalf("gauges = %+v, want g = 8000 and ten members of gf", s.Gauges)
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
