package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"bypassyield/internal/obs"
	"bypassyield/internal/wire"
)

// watchFlags is `by watch`: it scrapes a daemon's metrics every interval
// and prints what moved, until the connection drops or the process is
// stopped.
func watchFlags(fs *flag.FlagSet) func(env, []string) error {
	ep := endpointFlags(fs, anyDaemon)
	var every time.Duration
	rangedVar(fs, &every, "every", time.Second, "> 0", func(d time.Duration) bool { return d > 0 },
		"re-scrape at this `interval`")
	return func(e env, _ []string) error { return watch(e.ctx, e.stdout, ep, every, 0) }
}

// watch renders, per interval, the counter deltas with their implied
// per-second rate, the latency quantiles over the interval, and what the
// interval's flows say about the cache (flowFigures), all read over one
// connection, one scrape a sample. rounds bounds the number of samples
// (≤ 0: until the connection drops or ctx ends).
func watch(ctx context.Context, w io.Writer, ep *endpoint, interval time.Duration, rounds int) error {
	c, err := ep.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	prev, err := c.Scrape(wire.ScrapeMsg{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "watching %s at %s every %s (ctrl-c to stop)\n",
		prev.Source, ep.addr, interval)
	for i := 1; rounds <= 0 || i <= rounds; i++ {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
		cur, err := c.Scrape(wire.ScrapeMsg{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n[sample %d +%s]\n", i, time.Duration(i)*interval)
		renderDeltas(w, prev.Snapshot, cur.Snapshot, interval)
		prev = cur
	}
	return nil
}

// renderDeltas prints the counters that moved between two snapshots,
// the latencies observed between them, and the interval's flow figures.
func renderDeltas(w io.Writer, prev, cur obs.Snapshot, interval time.Duration) {
	base := map[string]int64{}
	for _, c := range prev.Counters {
		base[c.Name+"\x00"+c.Label] = c.Value
	}
	moved := 0
	secs := interval.Seconds()
	for _, c := range cur.Counters {
		d := c.Value - base[c.Name+"\x00"+c.Label]
		if d == 0 {
			continue
		}
		moved++
		fmt.Fprintf(w, "  %-40s %+12d  (%.1f/s)\n", labeled(c.Name, c.Label), d, float64(d)/secs)
	}
	if moved == 0 {
		fmt.Fprintln(w, "  (idle: no counter movement)")
	}
	renderLatencies(w, prev, cur)
	if hit, wan, comp := flowFigures(prev, cur); !math.IsNaN(hit) {
		fmt.Fprintf(w, "  flows:   byte hit ratio %s   WAN reduction %s   competitive ratio %s\n",
			fmtRatio(hit), fmtRatio(wan), fmtRatio(comp))
	}
}

// flowFigures is what the cache did over an interval, from the deltas
// of a proxy's flow counters between two scrapes: the byte hit ratio
// ΔD_C/ΔD_A, the WAN reduction (ΔD_A − ΔD_S − ΔD_L)/ΔD_A against
// shipping every byte, and the competitive ratio Δ(D_S + D_L)/Δbound
// against the ski-rental lower bound (core.optbound_bytes). D_A is the
// yield delivered (core.yield_bytes). A figure whose denominator did
// not move is NaN: no query, or no shadows for the bound.
func flowFigures(prev, cur obs.Snapshot) (byteHitRatio, wanReduction, competitiveRatio float64) {
	delta := func(name string) float64 {
		return float64(cur.CounterValue(name, "") - prev.CounterValue(name, ""))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return math.NaN()
		}
		return a / b
	}
	da, dc := delta("core.yield_bytes"), delta("core.cache_bytes")
	wan := delta("core.bypass_bytes") + delta("core.fetch_bytes")
	return ratio(dc, da), ratio(da-wan, da), ratio(wan, delta("core.optbound_bytes"))
}

// fmtRatio renders a flow figure, "-" when it is undefined.
func fmtRatio(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// renderLatencies prints compact quantile columns for every histogram
// that saw observations during the interval, computed over the delta
// window (HistogramSnap.Sub) so a long-running daemon's history does
// not wash out the last few seconds.
func renderLatencies(w io.Writer, prev, cur obs.Snapshot) {
	base := map[string]obs.HistogramSnap{}
	for _, h := range prev.Histograms {
		base[h.Name+"\x00"+h.Label] = h
	}
	printed := false
	for _, h := range cur.Histograms {
		d := h.Sub(base[h.Name+"\x00"+h.Label])
		if d.Count == 0 {
			continue
		}
		if !printed {
			printed = true
			fmt.Fprintf(w, "  latency:      %10s %10s %10s %8s\n", "p50", "p99", "p999", "n")
		}
		q := d.Quantiles(0.50, 0.99, 0.999)
		fmt.Fprintf(w, "    %-38s %8s %10s %10s %8d\n",
			labeled(h.Name, h.Label), fmtObs(h.Name, q[0]), fmtObs(h.Name, q[1]), fmtObs(h.Name, q[2]), d.Count)
	}
}

// fmtObs renders one histogram observation: microsecond histograms
// (the repo convention is a _us suffix) read as milliseconds, others
// as raw values.
func fmtObs(name string, v int64) string {
	if strings.HasSuffix(name, "_us") {
		return fmt.Sprintf("%.2fms", float64(v)/1e3)
	}
	return fmt.Sprintf("%d", v)
}
