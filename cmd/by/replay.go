package main

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"bypassyield/internal/wire"
)

// replayFlags is `by replay`: it replays a workload trace (`by trace`'s
// output) against a running proxy, the paper's trace-driven methodology
// over the live prototype, and prints the proxy's flow accounting when
// done. With -audit it also prints what the decision ledger says of the
// replay against the always-bypass counterfactual and the ski-rental
// lower bound.
func replayFlags(fs *flag.FlagSet) func(env, []string) error {
	ep := endpointFlags(fs, "proxy address")
	path := fs.String("trace", "", "trace file (JSONL, optionally .gz)")
	limit := fs.Int("limit", 0, "replay at most N queries (0 = all)")
	progress := fs.Int("progress", 500, "print progress every N queries (0 = quiet)")
	audit := fs.Bool("audit", false, "after the replay, diff realized vs. counterfactual traffic from the proxy's ledger")
	var top int
	topVar(fs, &top, 5, "with -audit, show the top-`N` regret contributors")

	return func(e env, _ []string) error {
		topSet := false
		fs.Visit(func(f *flag.Flag) { topSet = topSet || f.Name == "top" })
		if topSet && !*audit {
			return errors.New("-top ranks the audit's regret contributors: it needs -audit")
		}
		recs, _, err := loadTrace(*path, true)
		if err != nil {
			return err
		}
		if *limit > 0 {
			recs = head(recs, *limit)
		}
		c, err := ep.dial()
		if err != nil {
			return err
		}
		defer c.Close()

		start := time.Now()
		var replayed, failed int
		for i, rec := range recs {
			if _, err := c.Query(rec.SQL); err != nil {
				failed++
				if failed <= 5 {
					fmt.Fprintf(e.stderr, "by replay: query %d failed: %v\n", rec.Seq, err)
				}
				continue
			}
			replayed++
			if *progress > 0 && (i+1)%*progress == 0 {
				fmt.Fprintf(e.stderr, "by replay: %d/%d queries (%.0f/s)\n",
					i+1, len(recs), float64(i+1)/time.Since(start).Seconds())
			}
		}

		// One scrape carries the accounting and, for -audit, the ledger.
		q := wire.ScrapeMsg{}
		if *audit {
			q.Limit = wire.MaxDecisionLimit
		}
		st, err := c.Scrape(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.stdout, "replayed %d queries (%d failed) in %v\n", replayed, failed, time.Since(start).Round(time.Millisecond))
		renderAccounting(e.stdout, st)
		if *audit {
			renderAudit(e.stdout, st, top)
		}
		return nil
	}
}
