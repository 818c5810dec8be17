package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"bypassyield/internal/obs/flightrec"
)

// exemplarsFlags is `by exemplars`: `by federation`'s merged-trace view
// offline. It reads the daemons' exemplar logs (byproxyd's and bydbd's
// -exemplar-out; with -flight-sample 1 they hold every query), joins the
// records by trace id, and draws each daemon's view of a query as `by
// tail` draws an exemplar. A record without a trace id (the client sent
// none) cannot be joined and is counted, not shown.
func exemplarsFlags(fs *flag.FlagSet) func(env, []string) error {
	logs := fs.String("logs", "", "comma-separated daemon exemplar logs (-exemplar-out files)")
	var top int
	topVar(fs, &top, 10, "show the top-`N` merged traces")
	return func(e env, _ []string) error {
		if *logs == "" {
			return errors.New("-logs is required")
		}
		paths := strings.Split(*logs, ",")
		var exs []tracedExemplar
		untraced := 0
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			read, err := flightrec.ReadJSONL(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			for _, ex := range read {
				if ex.Trace == "" {
					untraced++
				}
				exs = append(exs, tracedExemplar{source: path, ex: ex})
			}
		}
		if len(exs) == untraced {
			return fmt.Errorf("no exemplar with a trace id in %s (%d without)", strings.Join(paths, ", "), untraced)
		}
		fmt.Fprintf(e.stdout, "%d exemplars from %d files, %d without a trace id\n", len(exs), len(paths), untraced)
		renderMergedTraces(e.stdout, exs, top, true)
		return nil
	}
}
