package main

import (
	"flag"
	"fmt"
	"io"

	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/wire"
)

// decisionsFlags is `by decisions`: a proxy's decision ledger and flow
// accounting, as recent decisions (filtered by object, action or trace
// id), a per-action summary, the top regret contributors, and realized
// WAN against always-bypass.
func decisionsFlags(fs *flag.FlagSet) func(env, []string) error {
	var q wire.ScrapeMsg
	fs.StringVar(&q.Object, "object", "", "keep only the records of this exact object id")
	fs.StringVar(&q.Action, "action", "", "keep only the records of this action (hit, bypass, load)")
	fs.StringVar(&q.Trace, "trace-id", "", "keep only the records of the query with this 16-hex-digit trace id")
	fs.IntVar(&q.Limit, "limit", 0, "cap the records returned (0 = the proxy's default)")
	var top int
	topVar(fs, &top, 10, "show the top-`N` regret contributors")
	return scrapeView(fs, "proxy address", func() wire.ScrapeMsg { return q },
		func(w io.Writer, res *wire.ScrapeResultMsg) { renderDecisions(w, res, top) })
}

func renderDecisions(w io.Writer, res *wire.ScrapeResultMsg, top int) {
	fmt.Fprintf(w, "decision ledger: %d recorded, %d matching\n", res.Recorded, len(res.Records))

	if len(res.Records) > 0 {
		// Per-action summary over the matching records.
		type agg struct {
			n          int64
			yield, wan int64
		}
		actions := map[string]*agg{}
		for _, r := range res.Records {
			a := actions[r.Action]
			if a == nil {
				a = &agg{}
				actions[r.Action] = a
			}
			a.n++
			a.yield += r.Yield
			a.wan += r.WANCost
		}
		fmt.Fprintln(w, "\nby action:                       count        yield MB          WAN MB")
		for _, name := range []string{"hit", "bypass", "load"} {
			a := actions[name]
			if a == nil {
				continue
			}
			fmt.Fprintf(w, "  %-24s %10d %15.3f %15.3f\n",
				name, a.n, float64(a.yield)/1e6, float64(a.wan)/1e6)
		}

		fmt.Fprintln(w, "\nrecent decisions (oldest first):")
		fmt.Fprintln(w, "      seq action  object                           yield MB    RP      BYU  epis phase  reason")
		for _, r := range res.Records {
			trace := ""
			if r.Trace != "" {
				trace = "  trace=" + r.Trace
			}
			fmt.Fprintf(w, "  %7d %-7s %-32s %8.3f %5.2f %8.3f %5d %-6s %s%s\n",
				r.Seq, r.Action, r.Object, float64(r.Yield)/1e6,
				r.RP, r.BYU, r.Episodes, r.EpisodePhase, r.Reason, trace)
		}
	}
	renderAudit(w, res, top)
}

// renderAudit is the decisions view's audit of the ledger, and all that
// `by replay -audit` prints of it: the top regret contributors among the
// records, then realized WAN against always-bypass over every access in
// the reply's accounting (a warm start's restored ones included).
func renderAudit(w io.Writer, res *wire.ScrapeResultMsg, top int) {
	regrets := head(ledger.Regret(res.Records), top)
	if len(regrets) > 0 && regrets[0].Regret > 0 {
		fmt.Fprintf(w, "\ntop %d regret contributors (WAN above per-object bound):\n", len(regrets))
		for _, or := range regrets {
			if or.Regret <= 0 {
				break
			}
			fmt.Fprintf(w, "  %-36s %4d accesses  realized %9.3f MB  bound %9.3f MB  regret %9.3f MB\n",
				or.Object, or.Accesses, float64(or.RealizedWAN)/1e6,
				float64(or.Bound)/1e6, float64(or.Regret)/1e6)
		}
	}

	// The proxy's network is uniform: always-bypass ships D_A.
	if bypass := res.Acct.YieldBytes; bypass > 0 {
		realized := res.Acct.WANBytes()
		fmt.Fprintln(w, "\ncounterfactual baseline (the whole accounting, not just matching records):")
		fmt.Fprintf(w, "  %-19s WAN %12.3f MB\n", "realized", float64(realized)/1e6)
		fmt.Fprintf(w, "  vs %-16s WAN %12.3f MB   saved %12.3f MB (%5.1f%%)\n",
			"always-bypass", float64(bypass)/1e6, float64(bypass-realized)/1e6,
			100*float64(bypass-realized)/float64(bypass))
	}
}
