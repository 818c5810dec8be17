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

// benchFlags is `by bench`: it regenerates the paper's evaluation,
// every figure (4–10) and table (1–2) of "Bypass Caching: Making
// Scientific Databases Good Network Citizens" (ICDE 2005), over
// synthesized EDR and DR1 traces, and the extensions.
func benchFlags(fs *flag.FlagSet) func(env, []string) error {
	exp := fs.String("exp", "all",
		"experiment id ("+strings.Join(experiments.IDs(), ", ")+
			"), an extension ("+strings.Join(experiments.ExtensionIDs(), ", ")+
			"), 'all' (the paper's evaluation), or 'extensions'")
	var scale int
	scaleVar(fs, &scale)
	var cachePct float64
	rangedVar(fs, &cachePct, "cache", 0.4, "(0, 1]", func(p float64) bool { return p > 0 && p <= 1 },
		"cache size as a `fraction` of the database, for figs 7-8 and tables 1-2")
	format := fs.String("format", "text", "output format: text, csv, or md")
	out := fs.String("out", "", "output file (default stdout)")
	quiet := fs.Bool("q", false, "suppress progress messages")

	return func(e env, _ []string) error {
		write := map[string]func(*experiments.Table, io.Writer) error{
			"text": (*experiments.Table).WriteText, "csv": (*experiments.Table).WriteCSV,
			"md": (*experiments.Table).WriteMarkdown, "markdown": (*experiments.Table).WriteMarkdown,
		}[*format]
		if write == nil {
			return fmt.Errorf("unknown format %q (have text, csv, md)", *format)
		}
		w := e.stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		suite := experiments.NewSuite(scale)
		suite.CachePct = cachePct

		var ids []string
		switch *exp {
		case "all":
			ids = experiments.IDs()
		case "extensions":
			ids = experiments.ExtensionIDs()
		default:
			ids = strings.Split(*exp, ",")
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
			if err := write(tab, w); err != nil {
				return err
			}
			if !*quiet {
				fmt.Fprintf(e.stderr, "by bench: %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
			}
		}
		return nil
	}
}
