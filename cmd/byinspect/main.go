// Command byinspect analyzes a workload trace file — class mix, yield
// distribution, sequence cost, schema locality (the paper's Figures
// 5–6), and query containment (Figure 4) — or, with -addr, scrapes a
// live byproxyd/bydbd metrics snapshot and renders it. With -watch it
// re-scrapes live metrics and shows what moved; with -decisions it
// shows the proxy's decision ledger, counterfactual savings versus
// always-bypass, and top regret contributors; with -tail it scrapes
// the flight recorder, ranks tail-latency causes and draws each
// exemplar's phases and WAN legs (-trace-id picks one query); with
// -federation it scrapes every listed daemon, verifies the Σ yields =
// D_A invariant across proxies, and merges exemplars by trace id into
// cross-node views; with -exemplars it does that merge offline, over
// the daemons' -exemplar-out files, with each view drawn as -tail
// draws it.
//
// Usage:
//
//	bytrace -release edr -scale 50 -out edr.jsonl.gz
//	byinspect -trace edr.jsonl.gz
//	byinspect -addr localhost:7100          # live metrics, human table
//	byinspect -addr localhost:7100 -json    # raw snapshot JSON
//	byinspect -addr localhost:7100 -watch 2s
//	byinspect -addr localhost:7100 -decisions -action load -top 5
//	byinspect -addr localhost:7100 -tail -outcome slow
//	byinspect -addr localhost:7100 -tail -trace-id 9f3c2a7e01b4d655
//	byinspect -federation localhost:7100,localhost:7201,localhost:7202
//	byinspect -exemplars proxy.jsonl,photo.jsonl,spec.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"bypassyield/internal/trace"
	"bypassyield/internal/wire"
	"bypassyield/internal/workload"
)

// options bundles the tool's flags (one field per flag).
type options struct {
	path   string
	top    int
	prep   bool
	addr   string
	asJSON bool
	watch  time.Duration
	dialTO time.Duration

	decisions bool
	object    string
	action    string
	traceID   string
	limit     int

	tail       bool
	outcome    string
	minMS      int64
	federation string
	exemplars  string
}

// registerFlags declares the tool's whole flag surface on fs;
// TestFlagSurface pins the names.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.path, "trace", "", "trace file (JSONL, optionally .gz)")
	fs.IntVar(&o.top, "top", 10, "show the top-N items in each ranking")
	fs.BoolVar(&o.prep, "preprocess", true, "drop log-self queries before analysis")
	fs.StringVar(&o.addr, "addr", "", "scrape live metrics from a proxy or node at this address")
	fs.BoolVar(&o.asJSON, "json", false, "with -addr, print the raw snapshot as JSON")
	fs.DurationVar(&o.watch, "watch", 0, "with -addr, re-scrape at this interval and show deltas")
	fs.DurationVar(&o.dialTO, "dial-timeout", wire.DefaultDialTimeout, "with -addr, connect timeout")

	fs.BoolVar(&o.decisions, "decisions", false, "with -addr, show the proxy's decision ledger and counterfactual savings")
	fs.StringVar(&o.object, "object", "", "with -decisions, filter records by exact object id")
	fs.StringVar(&o.action, "action", "", "with -decisions, filter records by action (hit, bypass, load)")
	fs.StringVar(&o.traceID, "trace-id", "", "with -decisions, -tail or -federation, keep only the query with this 16-hex-digit trace id")
	fs.IntVar(&o.limit, "limit", 0, "with -decisions or -tail, cap returned records (0 = server default)")

	fs.BoolVar(&o.tail, "tail", false, "with -addr, show the flight recorder's tail-latency attribution and its slowest exemplars, phases and WAN legs drawn")
	fs.StringVar(&o.outcome, "outcome", "", "with -tail or -federation, filter exemplars by outcome (slow, error, degraded, normal)")
	fs.Int64Var(&o.minMS, "min-ms", 0, "with -tail or -federation, keep only exemplars at least this slow")
	fs.StringVar(&o.federation, "federation", "", "comma-separated daemon addresses to scrape as one federation")
	fs.StringVar(&o.exemplars, "exemplars", "", "comma-separated daemon exemplar logs (-exemplar-out files) to merge by trace id, offline")
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()
	dialTimeout = o.dialTO

	q := wire.ScrapeMsg{Object: o.object, Action: o.action, Trace: o.traceID,
		Outcome: o.outcome, MinUS: o.minMS * 1000, Limit: o.limit}
	var err error
	switch {
	case o.exemplars != "":
		err = runExemplars(os.Stdout, strings.Split(o.exemplars, ","), o.top)
	case o.federation != "":
		err = runFederation(os.Stdout, strings.Split(o.federation, ","), q, o.top, o.asJSON)
	case o.tail:
		if o.addr == "" {
			err = fmt.Errorf("-tail requires -addr")
			break
		}
		err = runTail(os.Stdout, o.addr, q, o.top, o.asJSON)
	case o.decisions:
		if o.addr == "" {
			err = fmt.Errorf("-decisions requires -addr")
			break
		}
		err = runDecisions(os.Stdout, o.addr, q, o.top, o.asJSON)
	case o.addr != "" && o.watch > 0:
		err = runWatch(os.Stdout, o.addr, o.watch, 0)
	case o.addr != "":
		err = runLive(os.Stdout, o.addr, o.asJSON)
	default:
		err = run(o.path, o.top, o.prep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "byinspect:", err)
		os.Exit(1)
	}
}

func run(path string, top int, prep bool) error {
	if path == "" {
		return fmt.Errorf("one of -trace or -addr is required")
	}
	recs, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	if err := trace.Validate(recs); err != nil {
		return err
	}
	total := len(recs)
	if prep {
		recs = trace.Preprocess(recs)
	}

	fmt.Printf("trace: %d queries (%d after preprocessing), sequence cost %.3f GB\n",
		total, len(recs), float64(trace.SequenceCost(recs))/1e9)

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
	fmt.Println("\nclass mix (by byte volume):")
	for _, name := range names {
		c := classes[name]
		fmt.Printf("  %-10s %6d queries (%4.1f%%)  %9.3f GB (%4.1f%%)\n",
			name, c.n, 100*float64(c.n)/float64(len(recs)),
			float64(c.bytes)/1e9, 100*float64(c.bytes)/float64(trace.SequenceCost(recs)))
	}

	// Yield distribution.
	sort.Slice(yields, func(i, j int) bool { return yields[i] < yields[j] })
	pct := func(p float64) int64 {
		if len(yields) == 0 {
			return 0
		}
		i := int(p * float64(len(yields)-1))
		return yields[i]
	}
	fmt.Printf("\nyield distribution: p50 %.3f MB, p90 %.3f MB, p99 %.3f MB, max %.3f MB\n",
		float64(pct(0.5))/1e6, float64(pct(0.9))/1e6, float64(pct(0.99))/1e6,
		float64(yields[len(yields)-1])/1e6)

	// Schema locality (Figures 5-6).
	cols := workload.SummarizeLocality(workload.ColumnLocality(recs))
	tabs := workload.SummarizeLocality(workload.TableLocality(recs))
	if cols.References > 0 {
		fmt.Printf("\ncolumn locality: %d distinct, %d (%.0f%%) cover 90%% of %d references\n",
			cols.Items, cols.Top90, cols.Top90Frac*100, cols.References)
	}
	fmt.Printf("table locality:  %d distinct, %d (%.0f%%) cover 90%% of %d references\n",
		tabs.Items, tabs.Top90, tabs.Top90Frac*100, tabs.References)

	// Containment (Figure 4).
	cont := workload.QueryContainment(recs)
	if len(cont.Points) > 0 {
		fmt.Printf("query containment: %d identity queries, %d distinct ids, reuse rate %.3f\n",
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
	if top > len(objs) {
		top = len(objs)
	}
	fmt.Printf("\ntop %d objects by yield volume:\n", top)
	for _, o := range objs[:top] {
		fmt.Printf("  %-36s %9.3f GB\n", o, float64(byObj[o])/1e9)
	}
	return nil
}
