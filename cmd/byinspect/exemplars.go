package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"bypassyield/internal/obs/flightrec"
)

// runExemplars is -federation's merged-trace view offline: it reads the
// daemons' exemplar logs (byproxyd and bydbd -exemplar-out; with
// -flight-sample 1 they hold every query), joins the records by trace
// id, and draws each daemon's view of a query as -tail draws an
// exemplar. A record without a trace id — the client sent none — cannot
// be joined and is counted, not shown.
func runExemplars(w io.Writer, paths []string, top int) error {
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
	fmt.Fprintf(w, "%d exemplars from %d files, %d without a trace id\n", len(exs), len(paths), untraced)
	renderMergedTraces(w, exs, top, true)
	return nil
}
