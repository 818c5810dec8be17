// Command bybench regenerates the paper's evaluation: every figure
// (4–10) and table (1–2) of "Bypass Caching: Making Scientific
// Databases Good Network Citizens" (ICDE 2005), over synthesized EDR
// and DR1 traces.
//
// Usage:
//
//	bybench -exp all                 # run everything at full scale
//	bybench -exp fig9 -scale 10      # one experiment, 1/10 workload
//	bybench -exp tab1 -format csv -out tab1.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bypassyield/internal/experiments"
)

func main() {
	var (
		exp = flag.String("exp", "all",
			"experiment id ("+strings.Join(experiments.IDs(), ", ")+
				"), an extension ("+strings.Join(experiments.ExtensionIDs(), ", ")+
				"), 'all' (the paper's evaluation), or 'extensions'")
		scale    = flag.Int("scale", 1, "divide trace length and traffic targets by this factor (1 = paper scale)")
		cachePct = flag.Float64("cache", 0.4, "cache size as a fraction of the database, in (0, 1], for figs 7-8 and tables 1-2")
		format   = flag.String("format", "text", "output format: text, csv, or md")
		out      = flag.String("out", "", "output file (default stdout)")
		quiet    = flag.Bool("q", false, "suppress progress messages")
	)
	flag.Parse()

	if err := run(*exp, *scale, *cachePct, *format, *out, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "bybench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale int, cachePct float64, format, out string, quiet bool) error {
	if !(cachePct > 0 && cachePct <= 1) {
		return fmt.Errorf("-cache %g: the cache is a fraction of the database, in (0, 1]", cachePct)
	}
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	suite := experiments.NewSuite(scale)
	suite.CachePct = cachePct

	var ids []string
	switch exp {
	case "all":
		ids = experiments.IDs()
	case "extensions":
		ids = experiments.ExtensionIDs()
	default:
		ids = strings.Split(exp, ",")
	}
	for i, id := range ids {
		start := time.Now()
		tab, err := suite.Run(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		switch format {
		case "text":
			if err := tab.WriteText(w); err != nil {
				return err
			}
		case "csv":
			if err := tab.WriteCSV(w); err != nil {
				return err
			}
		case "md", "markdown":
			if err := tab.WriteMarkdown(w); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown format %q (have text, csv, md)", format)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "bybench: %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
