package main

import (
	"flag"
	"fmt"
	"io"

	"bypassyield/internal/wire"
)

// metricsFlags is `by metrics`: a running byproxyd's or bydbd's metrics
// snapshot, as a table grouped by metric family with quantile summaries
// for histograms; with -json, the whole scrape.
func metricsFlags(fs *flag.FlagSet) func(env, []string) error {
	return scrapeView(fs, anyDaemon, func() wire.ScrapeMsg { return wire.ScrapeMsg{} }, renderSnapshot)
}

func renderSnapshot(w io.Writer, m *wire.ScrapeResultMsg) {
	s := m.Snapshot
	fmt.Fprintf(w, "metrics from %s: %d counters, %d gauges, %d histograms\n",
		m.Source, len(s.Counters), len(s.Gauges), len(s.Histograms))

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
			fmt.Fprintf(w, "  %-34s %12d\n", labeled(g.Name, g.Label), g.Value)
		}
	}

	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "\nhistograms:                            count         mean          p50          p90          p99")
		for _, h := range s.Histograms {
			fmt.Fprintf(w, "  %-34s %10d %12.1f %12d %12d %12d\n",
				labeled(h.Name, h.Label), h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
		}
	}
}

// labeled names a family member as the metrics endpoint does:
// name{label}, or name alone.
func labeled(name, label string) string {
	if label == "" {
		return name
	}
	return name + "{" + label + "}"
}
