package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// goldenSnapshot is a hand-built snapshot covering every rendering
// rule: plain and labeled counters, dotted names, gauges, histograms with cumulative buckets, and label values needing
// escaping.
func goldenSnapshot() Snapshot {
	return Snapshot{
		Counters: []CounterSnap{
			{Name: "core.bypass_bytes", Value: 1200},
			{Name: "core.decisions", Label: "rate-profile/bypass", Value: 7},
			{Name: "core.decisions", Label: "rate-profile/hit", Value: 3},
			// Flight-recorder tail attribution (flightrec counters).
			{Name: "obs.exemplars", Label: "slow", Value: 4},
			{Name: "obs.tail_cause", Label: "wan:spec.sdss.org", Value: 3},
			{Name: "obs.tail_cause_us", Label: "wan:spec.sdss.org", Value: 91000},
			{Name: "wire.frames_rx", Label: `weird"label\with` + "\n" + `newline`, Value: 1},
		},
		Gauges: []GaugeSnap{
			{Name: "cache.used_bytes", Value: 9000},
			// Negative: a live policy that loads at a loss ships more
			// than always-bypass, so signed gauge rendering is
			// load-bearing.
			{Name: "core.bytes_saved_vs_bypass", Value: -2048},
			// Runtime self-observation (obs.EnableRuntimeStats).
			{Name: "runtime.goroutines", Value: 42},
			{Name: "runtime.heap_alloc_bytes", Value: 7340032},
			{Name: "runtime.sched_latency_p99_us", Value: 180},
			// Gauge-family members (per-site breaker states) share one
			// TYPE line and carry the family label.
			{Name: "wire.breaker_state", Label: "photo.sdss.org", Value: 0},
			{Name: "wire.breaker_state", Label: "spec.sdss.org", Value: 1},
		},
		Histograms: []HistogramSnap{
			{
				// Decision latency in nanoseconds (core.DecideBuckets).
				Name:   "core.decide_seconds",
				Bounds: []int64{100, 250, 500, 1000, 2500},
				Counts: []int64{0, 3, 5, 1, 0, 1}, // 1 in overflow
				Sum:    4242, Count: 10,
			},
			{
				// GC pause histogram from the runtime collector.
				Name:   "runtime.gc_pause_us",
				Bounds: []int64{10, 20, 40, 80},
				Counts: []int64{1, 2, 0, 0, 1},
				Sum:    195, Count: 4,
			},
			{
				// Pool-wait time per site (pool back-pressure signal,
				// sibling of rpc_latency for adaptive sizing).
				Name: "wire.pool_wait_us", Label: "photo.sdss.org",
				Bounds: []int64{100, 1000, 10000},
				Counts: []int64{5, 2, 0, 1},
				Sum:    15800, Count: 8,
			},
			{
				Name: "wire.rpc_latency_us", Label: "photo.sdss.org",
				Bounds: []int64{50, 100, 200},
				Counts: []int64{2, 1, 0, 4}, // 4 in overflow
				Sum:    12345, Count: 7,
			},
			{
				Name: "wire.rpc_latency_us", Label: "spec.sdss.org",
				Bounds: []int64{50, 100, 200},
				Counts: []int64{1, 0, 0, 0},
				Sum:    40, Count: 1,
			},
		},
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	ValidatePrometheusText(t, buf.String())
}

func TestWritePrometheusDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	s := goldenSnapshot()
	if err := s.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of one snapshot differ")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"wire.rpc_latency_us": "wire_rpc_latency_us",
		"core.decisions":      "core_decisions",
		"already_fine":        "already_fine",
		"9leading-digit":      "_leading_digit",
		"with:colon":          "with:colon",
		"":                    "_",
		"a b/c":               "a_b_c",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Fatalf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryEndToEndExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.accesses").Add(5)
	r.CounterFamily("core.decisions").Get("rate-profile/hit").Add(2)
	r.Gauge("cache.used").Set(10)
	r.Histogram("federation.query_latency_us", []int64{10, 100}).Observe(50)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE core_accesses counter",
		"core_accesses 5",
		`core_decisions{label="rate-profile/hit"} 2`,
		"# TYPE cache_used gauge",
		`federation_query_latency_us_bucket{le="+Inf"} 1`,
		"federation_query_latency_us_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	ValidatePrometheusText(t, out)
}

var (
	promTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.]+(e[+-][0-9]+)?|\+Inf|NaN)$`)
)

// ValidatePrometheusText asserts out is well-formed Prometheus text
// exposition: every line is a TYPE comment or a sample, every sample's
// metric was typed, histogram buckets are cumulative and end at +Inf,
// and _count matches the +Inf bucket.
func ValidatePrometheusText(t *testing.T, out string) {
	t.Helper()
	typed := map[string]string{}
	type histState struct {
		lastCum  map[string]int64 // per label-set cumulative check
		infCount map[string]int64
	}
	hists := map[string]*histState{}
	counts := map[string]map[string]int64{}

	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if !promTypeRe.MatchString(line) {
				t.Fatalf("line %d: bad TYPE line %q", ln+1, line)
			}
			f := strings.Fields(line)
			typed[f[2]] = f[3]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: bad sample line %q", ln+1, line)
		}
		name, labels, value := m[1], m[2], m[3]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suffix); b != name && typed[b] == "histogram" {
				base = b
			}
		}
		if typed[base] == "" {
			t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, line)
		}
		if typed[base] != "histogram" {
			continue
		}
		h := hists[base]
		if h == nil {
			h = &histState{lastCum: map[string]int64{}, infCount: map[string]int64{}}
			hists[base] = h
		}
		labelSansLE := regexp.MustCompile(`,?le="[^"]*"`).ReplaceAllString(labels, "")
		if labelSansLE == "{}" {
			labelSansLE = "" // bucket had only the le label
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("line %d: non-integer bucket %q", ln+1, line)
			}
			if v < h.lastCum[labelSansLE] {
				t.Fatalf("line %d: bucket counts not cumulative (%d < %d)", ln+1, v, h.lastCum[labelSansLE])
			}
			h.lastCum[labelSansLE] = v
			if strings.Contains(labels, `le="+Inf"`) {
				h.infCount[labelSansLE] = v
				h.lastCum[labelSansLE] = 0 // next label set restarts
			}
		case strings.HasSuffix(name, "_count"):
			v, _ := strconv.ParseInt(value, 10, 64)
			if counts[base] == nil {
				counts[base] = map[string]int64{}
			}
			counts[base][labelSansLE] = v
		}
	}
	for base, h := range hists {
		for labels, inf := range h.infCount {
			if c, ok := counts[base][labels]; !ok || c != inf {
				t.Fatalf("histogram %s%s: _count %d != +Inf bucket %d", base, labels, c, inf)
			}
		}
	}
}
