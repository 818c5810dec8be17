package main

import (
	"encoding/json"
	"fmt"
	"io"

	"bypassyield/internal/obs"
	"bypassyield/internal/wire"
)

// dialTimeout bounds every live-scrape connect; main overrides it from
// -dial-timeout.
var dialTimeout = wire.DefaultDialTimeout

// runLive scrapes a running byproxyd or bydbd and renders its metrics
// snapshot as a table grouped by metric family, with quantile summaries
// for histograms; with -json it prints the whole scrape.
func runLive(w io.Writer, addr string, asJSON bool) error {
	c, err := wire.DialTimeout(addr, dialTimeout)
	if err != nil {
		return err
	}
	defer c.Close()
	m, err := c.Scrape(wire.ScrapeMsg{})
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}
	renderSnapshot(w, m.Source, m.Snapshot)
	return nil
}

func renderSnapshot(w io.Writer, source string, s obs.Snapshot) {
	fmt.Fprintf(w, "metrics from %s: %d counters, %d gauges, %d histograms\n",
		source, len(s.Counters), len(s.Gauges), len(s.Histograms))

	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "\ncounters:")
		prev := ""
		for _, c := range s.Counters {
			if c.Label == "" {
				fmt.Fprintf(w, "  %-34s %12d\n", c.Name, c.Value)
				prev = ""
				continue
			}
			// Family members share a header line.
			if c.Name != prev {
				fmt.Fprintf(w, "  %s\n", c.Name)
				prev = c.Name
			}
			fmt.Fprintf(w, "    %-32s %12d\n", c.Label, c.Value)
		}
	}

	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "\ngauges:")
		for _, g := range s.Gauges {
			name := g.Name
			if g.Label != "" {
				name += "{" + g.Label + "}"
			}
			fmt.Fprintf(w, "  %-34s %12d\n", name, g.Value)
		}
	}

	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "\nhistograms:                            count         mean          p50          p90          p99")
		for _, h := range s.Histograms {
			name := h.Name
			if h.Label != "" {
				name += "{" + h.Label + "}"
			}
			fmt.Fprintf(w, "  %-34s %10d %12.1f %12d %12d %12d\n",
				name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
		}
	}
}
