package main

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"bypassyield/internal/synth"
	"bypassyield/internal/wire"
)

// replayFlags is `by replay`: it replays a workload trace (`by trace`'s
// output) against a running proxy through synth.Replay, the paper's
// trace-driven methodology over the live prototype, and prints the
// proxy's flow accounting when done. With -audit it also prints the
// decision ledger's top regret contributors and the accounting against
// the always-bypass counterfactual.
func replayFlags(fs *flag.FlagSet) func(env, []string) error {
	ep := endpointFlags(fs, "proxy address")
	path := fs.String("trace", "", "trace file (JSONL, optionally .gz)")
	limit := fs.Int("limit", 0, "replay at most N queries (0 = all)")
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
		logf := func(format string, args ...any) { fmt.Fprintf(e.stderr, "by replay: "+format+"\n", args...) }
		rep := synth.Replay(e.ctx, recs, synth.RunConfig{Addr: ep.addr, DialTimeout: ep.timeout, SkipScrape: true, Logf: logf})

		// One scrape carries the accounting and, for -audit, the ledger.
		q := wire.ScrapeMsg{}
		if *audit {
			q.Limit = wire.MaxDecisionLimit
		}
		st, err := scrape(ep.addr, ep.timeout, q)
		if err != nil {
			return err
		}
		wall := time.Duration(rep.WallSeconds * float64(time.Second)).Round(time.Millisecond)
		fmt.Fprintf(e.stdout, "replayed %d queries (%d failed) in %v\n", rep.Completed, rep.Errors, wall)
		renderAccounting(e.stdout, st)
		if *audit {
			renderAudit(e.stdout, st, top)
		}
		return nil
	}
}
