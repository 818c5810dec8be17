package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/trace"
	"bypassyield/internal/wire"
	"bypassyield/internal/workload"
)

func TestRunOnGeneratedTrace(t *testing.T) {
	p := workload.ScaledProfile(workload.EDRProfile(), 300)
	recs, err := workload.Generate(p, federation.Columns)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl.gz")
	if err := trace.WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	if err := run(path, 5, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", 5, true); err == nil {
		t.Fatal("missing -trace should error")
	}
	if err := run(filepath.Join(t.TempDir(), "absent.jsonl"), 5, true); err == nil {
		t.Fatal("absent file should error")
	}
}

// liveProxy starts an instrumented proxy and pushes a few queries
// through it so the snapshot has content to render.
func liveProxy(t *testing.T) string {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 100000})
	if err != nil {
		t.Fatal(err)
	}
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db,
		Policy:      core.NewRateProfile(core.RateProfileConfig{Capacity: s.TotalBytes()}),
		Granularity: federation.Columns,
		Obs:         obs.NewRegistry(),
		Ledger:      ledger.New(1024),
		Shadows:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := wire.NewProxy(med, federation.Columns, nil)
	p.SetLogf(func(string, ...any) {})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Query("select ra, dec from photoobj where ra between 0 and 350"); err != nil {
			t.Fatal(err)
		}
	}
	return addr
}

func TestRunLiveTable(t *testing.T) {
	addr := liveProxy(t)
	var buf bytes.Buffer
	if err := runLive(&buf, addr, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"metrics from byproxyd",
		"core.decisions",
		"rate-profile/bypass",
		"federation.query_latency_us",
		"histograms:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunLiveJSON(t *testing.T) {
	addr := liveProxy(t)
	var buf bytes.Buffer
	if err := runLive(&buf, addr, true); err != nil {
		t.Fatal(err)
	}
	var m wire.ScrapeResultMsg
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if m.Source != "byproxyd" || m.Snapshot.CounterTotal("core.decisions") == 0 {
		t.Fatalf("decoded = %+v", m)
	}
}

func TestRunDecisionsTable(t *testing.T) {
	addr := liveProxy(t)
	var buf bytes.Buffer
	if err := runDecisions(&buf, addr, wire.ScrapeMsg{}, 5, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"decision ledger:",
		"by action:",
		"recent decisions",
		"edr/photoobj.ra",
		"vs always-bypass",
		"ski-rental lower bound",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n  vs "); n != 1 {
		t.Fatalf("%d counterfactual lines, want the one against always-bypass:\n%s", n, out)
	}

	// Action filter narrows the record list to loads only.
	buf.Reset()
	if err := runDecisions(&buf, addr, wire.ScrapeMsg{Action: "load"}, 5, false); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if strings.Contains(out, " bypass ") || strings.Contains(out, " hit ") {
		t.Fatalf("action=load output contains other actions:\n%s", out)
	}
}

func TestRunDecisionsJSON(t *testing.T) {
	addr := liveProxy(t)
	var buf bytes.Buffer
	if err := runDecisions(&buf, addr, wire.ScrapeMsg{}, 5, true); err != nil {
		t.Fatal(err)
	}
	var res wire.ScrapeResultMsg
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if res.Recorded == 0 || len(res.Records) == 0 || res.BypassWANBytes == 0 {
		t.Fatalf("decoded = %+v", res)
	}
}

func TestRunLiveErrors(t *testing.T) {
	if err := runLive(&bytes.Buffer{}, "127.0.0.1:1", false); err == nil {
		t.Fatal("dial failure should error")
	}
}

func TestRenderLatencyDeltas(t *testing.T) {
	mk := func(counts []int64, sum, count int64) obs.HistogramSnap {
		return obs.HistogramSnap{
			Name:   "federation.query_latency_us",
			Bounds: []int64{1000, 10000, 100000},
			Counts: counts, Sum: sum, Count: count,
		}
	}
	// Between samples the histogram gained 10 fast and 1 slow
	// observation; the columns must reflect only the delta window.
	prev := obs.Snapshot{Histograms: []obs.HistogramSnap{mk([]int64{100, 0, 0, 0}, 50_000, 100)}}
	cur := obs.Snapshot{Histograms: []obs.HistogramSnap{mk([]int64{110, 0, 1, 0}, 100_000, 111)}}
	var buf bytes.Buffer
	renderDeltas(&buf, prev, cur, time.Second)
	out := buf.String()
	for _, want := range []string{
		"latency:",
		"federation.query_latency_us",
		"1.00ms",   // p50 of the delta: the first bucket's bound, as ms
		"100.00ms", // p999 reaches the slow observation's bucket
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("watch output missing %q:\n%s", want, out)
		}
	}
	// An idle histogram (no delta) stays out of the table.
	buf.Reset()
	renderDeltas(&buf, cur, cur, time.Second)
	if strings.Contains(buf.String(), "latency:") {
		t.Fatalf("idle histograms rendered:\n%s", buf.String())
	}
}

// TestFlagSurface pins the tool's options: adding, renaming or removing
// a flag is a reviewed edit of this list.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"action", "addr", "decisions", "dial-timeout", "exemplars", "federation", "json",
		"limit", "min-ms", "object", "outcome", "preprocess", "tail", "top", "trace",
		"trace-id", "watch",
	}
	fs := flag.NewFlagSet("byinspect", flag.ContinueOnError)
	registerFlags(fs, new(options))
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // in name order
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %q (%d)\nwant    %q (%d)", got, len(got), want, len(want))
	}
}
