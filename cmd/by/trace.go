package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"

	"bypassyield/internal/federation"
	"bypassyield/internal/trace"
	"bypassyield/internal/workload"
)

// traceFlags is `by trace`: it synthesizes an SDSS-like workload trace
// matched to the paper's EDR or DR1 query log and writes it as JSON
// lines (gzipped when -out ends in .gz).
func traceFlags(fs *flag.FlagSet) func(env, []string) error {
	release := fs.String("release", "edr", "data release: edr or dr1")
	gran := fs.String("granularity", "columns", "object granularity for access decomposition: tables, columns or views")
	var scale int
	scaleVar(fs, &scale)
	seed := fs.Int64("seed", 0, "override the profile's seed (0 keeps the default)")
	out := fs.String("out", "", "output file (default stdout)")
	prep := fs.Bool("preprocess", false, "drop log-self queries before writing (the paper's preprocessing)")

	return func(e env, _ []string) error {
		p, err := workload.ReleaseProfile(*release)
		if err != nil {
			return err
		}
		p = workload.ScaledProfile(p, scale)
		if *seed != 0 {
			p.Seed = *seed
		}
		g, err := federation.ParseGranularity(*gran)
		if err != nil {
			return err
		}
		recs, err := workload.Generate(p, g)
		if err != nil {
			return err
		}
		if *prep {
			recs = trace.Preprocess(recs)
		}
		if err := trace.Validate(recs); err != nil {
			return err
		}
		if *out == "" {
			err = trace.Write(e.stdout, recs)
		} else {
			err = trace.WriteFile(*out, recs)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(e.stderr, "by trace: %d queries, sequence cost %.2f GB (target %.2f GB)\n",
			len(recs), float64(trace.SequenceCost(trace.Preprocess(recs)))/1e9,
			float64(p.TargetSequenceCost)/1e9)
		return nil
	}
}

// loadTrace reads and validates the trace at path and, with prep, drops
// its log-self queries as the paper's preprocessing does. read counts
// the records before that.
func loadTrace(path string, prep bool) (recs []trace.Record, read int, err error) {
	if path == "" {
		return nil, 0, errors.New("-trace is required")
	}
	if recs, err = trace.ReadFile(path); err != nil {
		return nil, 0, err
	}
	if err := trace.Validate(recs); err != nil {
		return nil, 0, err
	}
	read = len(recs)
	if prep {
		recs = trace.Preprocess(recs)
	}
	return recs, read, nil
}

// analyzeFlags is `by analyze`: the class mix, yield distribution and
// sequence cost of a trace, its schema locality (the paper's Figures
// 5–6), query containment (Figure 4) and top objects by yield.
func analyzeFlags(fs *flag.FlagSet) func(env, []string) error {
	path := fs.String("trace", "", "trace file (JSONL, optionally .gz)")
	var top int
	topVar(fs, &top, 10, "show the top-`N` objects by yield volume")
	prep := fs.Bool("preprocess", true, "drop log-self queries before analysis")
	return func(e env, _ []string) error { return analyze(e.stdout, *path, top, *prep) }
}

func analyze(w io.Writer, path string, top int, prep bool) error {
	recs, read, err := loadTrace(path, prep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d queries (%d after preprocessing), sequence cost %.3f GB\n",
		read, len(recs), float64(trace.SequenceCost(recs))/1e9)
	if len(recs) == 0 {
		return nil
	}

	// Class mix and per-class yield volume.
	type classAgg struct {
		n     int
		bytes int64
	}
	classes := map[string]*classAgg{}
	var yields []int64
	for _, r := range recs {
		c := classes[r.Class]
		if c == nil {
			c = &classAgg{}
			classes[r.Class] = c
		}
		c.n++
		c.bytes += r.Yield
		yields = append(yields, r.Yield)
	}
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return classes[names[i]].bytes > classes[names[j]].bytes })
	fmt.Fprintln(w, "\nclass mix (by byte volume):")
	for _, name := range names {
		c := classes[name]
		fmt.Fprintf(w, "  %-10s %6d queries (%4.1f%%)  %9.3f GB (%4.1f%%)\n",
			name, c.n, 100*float64(c.n)/float64(len(recs)),
			float64(c.bytes)/1e9, 100*float64(c.bytes)/float64(trace.SequenceCost(recs)))
	}

	// Yield distribution.
	sort.Slice(yields, func(i, j int) bool { return yields[i] < yields[j] })
	pct := func(p float64) float64 { return float64(yields[int(p*float64(len(yields)-1))]) / 1e6 }
	fmt.Fprintf(w, "\nyield distribution: p50 %.3f MB, p90 %.3f MB, p99 %.3f MB, max %.3f MB\n",
		pct(0.5), pct(0.9), pct(0.99), pct(1))

	// Schema locality (Figures 5-6).
	cols := workload.SummarizeLocality(workload.ColumnLocality(recs))
	tabs := workload.SummarizeLocality(workload.TableLocality(recs))
	if cols.References > 0 {
		fmt.Fprintf(w, "\ncolumn locality: %d distinct, %d (%.0f%%) cover 90%% of %d references\n",
			cols.Items, cols.Top90, cols.Top90Frac*100, cols.References)
	}
	fmt.Fprintf(w, "table locality:  %d distinct, %d (%.0f%%) cover 90%% of %d references\n",
		tabs.Items, tabs.Top90, tabs.Top90Frac*100, tabs.References)

	// Containment (Figure 4).
	cont := workload.QueryContainment(recs)
	if len(cont.Points) > 0 {
		fmt.Fprintf(w, "query containment: %d identity queries, %d distinct ids, reuse rate %.3f\n",
			len(cont.Points), cont.Distinct, cont.ReuseRate())
	}

	// Top objects by yield volume.
	byObj := map[string]int64{}
	for _, r := range recs {
		for _, a := range r.Accesses {
			byObj[a.Object] += a.Yield
		}
	}
	objs := make([]string, 0, len(byObj))
	for o := range byObj {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return byObj[objs[i]] > byObj[objs[j]] })
	objs = head(objs, top)
	fmt.Fprintf(w, "\ntop %d objects by yield volume:\n", len(objs))
	for _, o := range objs {
		fmt.Fprintf(w, "  %-36s %9.3f GB\n", o, float64(byObj[o])/1e9)
	}
	return nil
}
