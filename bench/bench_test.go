package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestQuickRun runs every workload's two passes at -quick size and
// checks what the driver and a reader rely on: every workload and
// metric of BENCHMARK.json is printed with its unit and a finite value,
// the self-checks hold, and nothing survives the run.
func TestQuickRun(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	// os/signal starts its one watcher goroutine on first use and keeps
	// it; start it before counting.
	_, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	stop()
	before := runtime.NumGoroutine()
	var buf bytes.Buffer
	out := filepath.Join(t.TempDir(), "latest.json")
	ok, err := run(&buf, options{seed: 12, seconds: 1, trace: -1, quick: true, out: out, scratch: t.TempDir()})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if !ok {
		t.Errorf("a self-check failed:\n%s", buf.String())
	}
	text := buf.String()
	if !strings.Contains(text, "leak check: ok") {
		t.Errorf("leak check did not pass:\n%s", text)
	}
	if n := strings.Count(text, "  host factor "); n != len(specs) {
		t.Errorf("host factor printed %d times, want once per end-to-end pass (%d):\n%s", n, len(specs), text)
	}

	// printed[workload][metric] = unit, for finite values only.
	printed := map[string]map[string]string{}
	var workload string
	for _, line := range strings.Split(text, "\n") {
		if rest, found := strings.CutPrefix(line, "workload "); found {
			workload, _, _ = strings.Cut(rest, ":")
			if printed[workload] == nil {
				printed[workload] = map[string]string{}
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(line, "  ") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
			printed[workload][f[0]] = f[2]
		}
	}
	// BENCHMARK.json lists the workloads the driver runs: all but
	// edr-durable (workloads.go says why).
	listed := map[string]bool{}
	for _, wl := range bf.Workloads {
		listed[wl.Name] = true
	}
	for _, s := range specs {
		if !listed[s.Name] && s.Name != "edr-durable" {
			t.Errorf("workload %s is not in BENCHMARK.json", s.Name)
		}
	}
	for _, wl := range bf.Workloads {
		if _, found := specByName(wl.Name); !found {
			t.Errorf("BENCHMARK.json workload %s is not in the benchmark", wl.Name)
		}
		for _, m := range bf.EndToEnd {
			if got := printed[wl.Name][m.Name]; got != m.Unit {
				t.Errorf("%s: end-to-end metric %s printed with unit %q, want %q", wl.Name, m.Name, got, m.Unit)
			}
		}
		for _, m := range bf.PerLayer {
			if got := printed[wl.Name][m.Name]; got != m.Unit {
				t.Errorf("%s: per-layer metric %s printed with unit %q, want %q", wl.Name, m.Name, got, m.Unit)
			}
		}
	}

	// The tables in metrics.go and BENCHMARK.json are the same.
	if len(bf.EndToEnd) != len(endToEndMetrics) || len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, metrics.go %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range endToEndMetrics {
		if j := bf.EndToEnd[i]; j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %v, metrics.go %v", i, j, m)
		}
	}
	for i, m := range perLayerMetrics {
		if j := bf.PerLayer[i]; j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %v, metrics.go %v", i, j, m)
		}
	}

	// The last line is the driver's: one JSON object with exactly
	// these keys.
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, found := last[k]; !found {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want 4", len(last))
	}

	// A run compared with itself is never worse; the files -out wrote
	// are what -compare reads.
	if _, err := os.Stat(filepath.Join(filepath.Dir(out), "trace.json")); err != nil {
		t.Errorf("trace.json was not written: %v", err)
	}
	var cmp bytes.Buffer
	worse, err := compareFiles(&cmp, out, out)
	if err != nil || worse {
		t.Errorf("compare of a run with itself: worse=%v err=%v\n%s", worse, err, cmp.String())
	}
	if rows := strings.Count(cmp.String(), "\n"); rows != 1+len(specs)*len(endToEndMetrics) {
		t.Errorf("compare printed %d lines, want a header and %d rows", rows, len(specs)*len(endToEndMetrics))
	}

	for wait := time.Now(); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Since(wait) > 2*time.Second {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestHostReference: the reference task runs, reads 1 at its nominal
// times, scales timings the right way round, and leaves nothing behind.
func TestHostReference(t *testing.T) {
	before := runtime.NumGoroutine()
	h, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	var passes []refPass
	for i := 0; i < 2; i++ {
		p, err := h.pass()
		if err != nil {
			t.Fatal(err)
		}
		passes = append(passes, p)
	}
	h.Close()
	f, parts, err := hostFactor(passes)
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		t.Errorf("host factor %v of %v, err %v", f, passes, err)
	}
	for i, v := range parts {
		if !(v > 0) {
			t.Errorf("component %s took %v ms", refPartNames[i], v)
		}
	}
	if f, _, err := hostFactor([]refPass{refNominalMS, refNominalMS}); err != nil || math.Abs(f-1) > 1e-12 {
		t.Errorf("host factor %v at the nominal times, err %v", f, err)
	}
	if _, _, err := hostFactor(nil); err == nil {
		t.Error("host factor of no passes")
	}
	// A host twice as slow halves throughput and doubles latency; at the
	// reference's speed both read as on a nominal host.
	got := timings{QPS: 500, P50ms: 2, P99ms: 20, SetupS: 4}.atReference(2)
	if want := (timings{QPS: 1000, P50ms: 1, P99ms: 10, SetupS: 2}); got != want {
		t.Errorf("atReference(2) = %+v, want %+v", got, want)
	}
	for wait := time.Now(); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Since(wait) > 2*time.Second {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestCompareVerdicts checks the verdicts on hand-made results.
func TestCompareVerdicts(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	bound := bf.EndToEnd[0].Bound // qps: higher is better
	// write makes a result file in which workload wl has every metric
	// at 1 but the named one.
	write := func(wl, metric string, st stat) string {
		r := results{EndToEnd: map[string]passResult{wl: {Metrics: map[string]stat{}}}}
		for _, m := range bf.EndToEnd {
			r.EndToEnd[wl].Metrics[m.Name] = stat{Value: 1, Min: 1, Max: 1}
		}
		r.EndToEnd[wl].Metrics[metric] = st
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSON(path, r, ""); err != nil {
			t.Fatal(err)
		}
		return path
	}
	flat := func(v float64) stat { return stat{Value: v, Min: v, Max: v} }
	for _, c := range []struct {
		name, workload, metric string
		a, b                   stat
		verdict                string
		failed                 bool
	}{
		{"same", "edr-cached", "qps", flat(1000), flat(1000), "ok", false},
		{"slower", "edr-cached", "qps", flat(1000), flat(1000 * (1 - 2*bound)), "worse", true},
		{"faster", "edr-cached", "qps", flat(1000), flat(2000), "ok", false},
		{"noisy", "edr-cached", "qps", flat(1000), stat{Value: 1000, Min: 1000 * (1 - bound), Max: 1000 * (1 + bound)}, "unresolved", false},
		{"absent", "edr-cached", "qps", flat(1000), stat{}, "missing", true},
		// wan_bytes has BENCHMARK.json's bound where a cache has a history,
		// 1% where nothing is cached, none on the sequential workload.
		{"cached +5%", "edr-cached", "wan_bytes", flat(1000), flat(1050), "ok", false},
		{"bypass +5%", "edr-bypass", "wan_bytes", flat(1000), flat(1050), "worse", true},
		{"replay +1 B", "tables-replay", "wan_bytes", flat(1000), flat(1001), "worse", true},
		{"replay same", "tables-replay", "wan_bytes", flat(1000), flat(1000), "ok", false},
	} {
		var buf bytes.Buffer
		failed, err := compareFiles(&buf, write(c.workload, c.metric, c.a), write(c.workload, c.metric, c.b))
		if err != nil {
			t.Fatal(err)
		}
		var got string
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[1] == c.metric {
				got = f[len(f)-1]
			}
		}
		if got != c.verdict || failed != c.failed {
			t.Errorf("%s: verdict %q failed=%v, want %q failed=%v\n%s", c.name, got, failed, c.verdict, c.failed, buf.String())
		}
	}
}

// TestDigest: the start alone determines a repetition's statements,
// the seed a run's, and seeds 12 and 13 differ.
func TestDigest(t *testing.T) {
	for _, s := range specs {
		digest := func(start int) string {
			in, err := generate(s, quickSizes.warm, quickSizes.timed, start)
			if err != nil {
				t.Fatal(err)
			}
			return in.digest
		}
		a := digest(7)
		if b := digest(7); a != b {
			t.Errorf("%s: digest %s then %s for the same input", s.Name, a, b)
		}
		if c := digest(8); a == c {
			t.Errorf("%s: digest %s for starts 7 and 8", s.Name, a)
		}
	}
	run := func(seed int64) string {
		pr, err := runEndToEnd(context.Background(), specs[len(specs)-1], seed, quickSizes, 2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return pr.Digest
	}
	a := run(12)
	if b := run(12); a != b {
		t.Errorf("digest %s then %s for seed 12", a, b)
	}
	if c := run(13); a == c {
		t.Errorf("digest %s for seeds 12 and 13", a)
	}
}
