// Command bytrace synthesizes SDSS-like workload traces matched to
// the paper's EDR and DR1 query logs and writes them as JSON lines.
//
// Usage:
//
//	bytrace -release edr -granularity columns -out edr-columns.jsonl
//	bytrace -release dr1 -scale 10 -out dr1-small.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"bypassyield/internal/federation"
	"bypassyield/internal/trace"
	"bypassyield/internal/workload"
)

func main() {
	var (
		release = flag.String("release", "edr", "data release: edr or dr1")
		gran    = flag.String("granularity", "columns", "object granularity for access decomposition: tables, columns or views")
		scale   = flag.Int("scale", 1, "divide trace length and traffic target by this factor")
		seed    = flag.Int64("seed", 0, "override the profile's seed (0 keeps the default)")
		out     = flag.String("out", "", "output file (default stdout)")
		prep    = flag.Bool("preprocess", false, "drop log-self queries before writing (the paper's preprocessing)")
	)
	flag.Parse()

	if err := run(*release, *gran, *scale, *seed, *out, *prep); err != nil {
		fmt.Fprintln(os.Stderr, "bytrace:", err)
		os.Exit(1)
	}
}

func run(release, gran string, scale int, seed int64, out string, prep bool) error {
	p, err := workload.ReleaseProfile(release)
	if err != nil {
		return err
	}
	p = workload.ScaledProfile(p, scale)
	if seed != 0 {
		p.Seed = seed
	}
	g, err := federation.ParseGranularity(gran)
	if err != nil {
		return err
	}
	recs, err := workload.Generate(p, g)
	if err != nil {
		return err
	}
	if prep {
		recs = trace.Preprocess(recs)
	}
	if err := trace.Validate(recs); err != nil {
		return err
	}

	if out == "" {
		if err := trace.Write(os.Stdout, recs); err != nil {
			return err
		}
	} else if err := trace.WriteFile(out, recs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bytrace: %d queries, sequence cost %.2f GB (target %.2f GB)\n",
		len(recs), float64(trace.SequenceCost(trace.Preprocess(recs)))/1e9,
		float64(p.TargetSequenceCost)/1e9)
	return nil
}
