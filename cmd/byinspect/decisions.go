package main

import (
	"encoding/json"
	"fmt"
	"io"

	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/wire"
)

// runDecisions scrapes the proxy's decision ledger and shadow
// counterfactual accounting and renders them: recent decisions
// (filterable by object, action, or trace id), a per-action summary,
// savings versus always-bypass, and the top regret contributors.
func runDecisions(w io.Writer, addr string, q wire.ScrapeMsg, top int, asJSON bool) error {
	c, err := wire.DialTimeout(addr, dialTimeout)
	if err != nil {
		return err
	}
	defer c.Close()
	res, err := c.Scrape(q)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	renderDecisions(w, res, top)
	return nil
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

		// Regret: realized WAN above the per-object ski-rental bound.
		regrets := ledger.Regret(res.Records)
		if top > len(regrets) {
			top = len(regrets)
		}
		if top > 0 && regrets[0].Regret > 0 {
			fmt.Fprintf(w, "\ntop %d regret contributors (WAN above per-object bound):\n", top)
			for _, or := range regrets[:top] {
				if or.Regret <= 0 {
					break
				}
				fmt.Fprintf(w, "  %-36s %4d accesses  realized %9.3f MB  bound %9.3f MB  regret %9.3f MB\n",
					or.Object, or.Accesses, float64(or.RealizedWAN)/1e6,
					float64(or.Bound)/1e6, float64(or.Regret)/1e6)
			}
		}
	}

	if wan := res.BypassWANBytes; wan > 0 {
		fmt.Fprintln(w, "\ncounterfactual baseline (since the proxy started, not just matching records):")
		fmt.Fprintf(w, "  vs %-16s WAN %12.3f MB   saved %12.3f MB (%5.1f%%)\n",
			"always-bypass", float64(wan)/1e6, float64(res.SavedVsBypassBytes)/1e6,
			100*float64(res.SavedVsBypassBytes)/float64(wan))
	}
	if res.OptBoundBytes > 0 {
		fmt.Fprintf(w, "\nski-rental lower bound: %.3f MB, competitive ratio %.3f\n",
			float64(res.OptBoundBytes)/1e6, float64(res.CompetitiveRatioMilli)/1000)
	}
}
