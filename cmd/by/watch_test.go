package main

import (
	"bytes"
	"context"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/obs"
)

func TestRunWatch(t *testing.T) {
	addr := liveProxy(t)
	var buf bytes.Buffer
	// Two 20ms rounds: the scrapes themselves move the proxy's wire
	// counters, so each sample shows deltas: one scrape frame each.
	if err := watch(context.Background(), &buf, &endpoint{addr, time.Second}, 20*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"watching byproxyd",
		"[sample 1 +20ms]",
		"[sample 2 +40ms]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("watch output missing %q:\n%s", want, out)
		}
	}
	if moved := regexp.MustCompile(`wire\.frames_rx\{(\w+)\} +\+(\d+) `).FindAllStringSubmatch(out, -1); len(moved) != 2 ||
		moved[0][1] != "scrape" || moved[0][2] != "1" || moved[1][1] != "scrape" || moved[1][2] != "1" {
		t.Fatalf("frames read per sample = %q, want one scrape frame in each of two samples:\n%s", moved, out)
	}
}

func TestRunWatchErrors(t *testing.T) {
	if _, err := by("watch", "-addr", "127.0.0.1:1", "-every", "1ms"); err == nil {
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

// flowSnapshot is a proxy's scrape reduced to the flow counters the
// watch figures read.
func flowSnapshot(yield, cache, bypass, fetch int64) obs.Snapshot {
	return obs.Snapshot{Counters: []obs.CounterSnap{
		{Name: "core.bypass_bytes", Value: bypass},
		{Name: "core.cache_bytes", Value: cache},
		{Name: "core.fetch_bytes", Value: fetch},
		{Name: "core.yield_bytes", Value: yield},
	}}
}

// TestFlowFigures: the interval's figures are ratios of the counters'
// deltas between two scrapes, not of their lifetime values.
func TestFlowFigures(t *testing.T) {
	prev := flowSnapshot(10_000, 6_000, 4_000, 5_000)
	// Over the interval: 1 000 delivered, 960 of them from the cache,
	// 40 bypassed, one 10-byte load.
	cur := flowSnapshot(11_000, 6_960, 4_040, 5_010)
	hit, wan := flowFigures(prev, cur)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"byte hit ratio", hit, 960.0 / 1000},
		{"WAN reduction", wan, (1000.0 - 40 - 10) / 1000},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	var buf bytes.Buffer
	renderDeltas(&buf, prev, cur, time.Second)
	if want := "byte hit ratio 0.960   WAN reduction 0.950\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("watch output lacks %q:\n%s", want, buf.String())
	}

	// An idle interval prints no figures at all.
	buf.Reset()
	renderDeltas(&buf, prev, prev, time.Second)
	if strings.Contains(buf.String(), "byte hit ratio") {
		t.Fatalf("idle interval printed flow figures:\n%s", buf.String())
	}
}
