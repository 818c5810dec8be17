package main

import (
	"bytes"
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
	if err := runWatch(&buf, addr, 20*time.Millisecond, 2); err != nil {
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
	if err := runWatch(&bytes.Buffer{}, "127.0.0.1:1", time.Millisecond, 1); err == nil {
		t.Fatal("dial failure should error")
	}
}

// flowSnapshot is a proxy's scrape reduced to the flow counters the
// watch figures read.
func flowSnapshot(yield, cache, bypass, fetch, bound int64) obs.Snapshot {
	return obs.Snapshot{Counters: []obs.CounterSnap{
		{Name: "core.bypass_bytes", Value: bypass},
		{Name: "core.cache_bytes", Value: cache},
		{Name: "core.fetch_bytes", Value: fetch},
		{Name: "core.optbound_bytes", Value: bound},
		{Name: "core.yield_bytes", Value: yield},
	}}
}

// TestFlowFigures: the interval's figures are ratios of the counters'
// deltas between two scrapes, not of their lifetime values.
func TestFlowFigures(t *testing.T) {
	prev := flowSnapshot(10_000, 6_000, 4_000, 5_000, 4_000)
	// Over the interval: 1 000 delivered, 960 of them from the cache,
	// 40 bypassed, one 10-byte load; the bound grew by 40.
	cur := flowSnapshot(11_000, 6_960, 4_040, 5_010, 4_040)
	hit, wan, comp := flowFigures(prev, cur)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"byte hit ratio", hit, 960.0 / 1000},
		{"WAN reduction", wan, (1000.0 - 40 - 10) / 1000},
		{"competitive ratio", comp, (40.0 + 10) / 40},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	var buf bytes.Buffer
	renderDeltas(&buf, prev, cur, time.Second)
	if want := "byte hit ratio 0.960   WAN reduction 0.950   competitive ratio 1.250"; !strings.Contains(buf.String(), want) {
		t.Fatalf("watch output lacks %q:\n%s", want, buf.String())
	}

	// No bound (shadows off): that figure alone is undefined.
	noBound := flowSnapshot(11_000, 6_960, 4_040, 5_010, 4_000)
	if _, _, comp := flowFigures(prev, noBound); !math.IsNaN(comp) {
		t.Errorf("competitive ratio without a bound = %v, want NaN", comp)
	}
	// An idle interval prints no figures at all.
	buf.Reset()
	renderDeltas(&buf, prev, prev, time.Second)
	if strings.Contains(buf.String(), "byte hit ratio") {
		t.Fatalf("idle interval printed flow figures:\n%s", buf.String())
	}
}
