// Command byreplay replays a workload trace file (bytrace's JSONL
// output) against a running proxy — the paper's trace-driven
// methodology over the live prototype — and reports the proxy's flow
// accounting when done. With -audit it also scrapes the decision
// ledger and diffs realized traffic against the proxy's online
// always-bypass counterfactual and the ski-rental lower bound.
//
// Usage:
//
//	bytrace -release edr -scale 100 -out edr.jsonl
//	byreplay -addr localhost:7100 -trace edr.jsonl -progress 100 -audit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/trace"
	"bypassyield/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7100", "proxy address")
		path     = flag.String("trace", "", "trace file (JSONL, from bytrace)")
		limit    = flag.Int("limit", 0, "replay at most N queries (0 = all)")
		progress = flag.Int("progress", 500, "print progress every N queries (0 = quiet)")
		audit    = flag.Bool("audit", false, "after replay, diff realized vs. counterfactual traffic from the proxy's ledger")
		top      = flag.Int("top", 5, "with -audit, show the top-N regret contributors")
		dialTO   = flag.Duration("dial-timeout", wire.DefaultDialTimeout, "connect timeout")
	)
	flag.Parse()

	if err := run(*addr, *dialTO, *path, *limit, *progress, *audit, *top); err != nil {
		fmt.Fprintln(os.Stderr, "byreplay:", err)
		os.Exit(1)
	}
}

func run(addr string, dialTimeout time.Duration, path string, limit, progress int, audit bool, top int) error {
	if path == "" {
		return fmt.Errorf("-trace is required")
	}
	recs, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	recs = trace.Preprocess(recs)
	if limit > 0 && len(recs) > limit {
		recs = recs[:limit]
	}

	client, err := wire.DialTimeout(addr, dialTimeout)
	if err != nil {
		return err
	}
	defer client.Close()

	start := time.Now()
	var replayed, failed int
	for i, rec := range recs {
		if _, err := client.Query(rec.SQL); err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "byreplay: query %d failed: %v\n", rec.Seq, err)
			}
			continue
		}
		replayed++
		if progress > 0 && (i+1)%progress == 0 {
			fmt.Fprintf(os.Stderr, "byreplay: %d/%d queries (%.0f/s)\n",
				i+1, len(recs), float64(i+1)/time.Since(start).Seconds())
		}
	}

	// One scrape carries the accounting and, for -audit, the ledger.
	q := wire.ScrapeMsg{}
	if audit {
		q.Limit = wire.MaxDecisionLimit
	}
	st, err := client.Scrape(q)
	if err != nil {
		return err
	}
	a := st.Acct
	fmt.Printf("replayed %d queries (%d failed) in %v\n", replayed, failed, time.Since(start).Round(time.Millisecond))
	fmt.Printf("policy %s (%s): %d hits / %d bypasses / %d loads / %d evictions\n",
		st.Policy, st.Granularity, a.Hits, a.Bypasses, a.Loads, a.Evictions)
	fmt.Printf("WAN %.3f GB (bypass %.3f + fetch %.3f) of %.3f GB delivered; byte hit rate %.1f%%\n",
		float64(a.WANBytes())/1e9, float64(a.BypassBytes)/1e9, float64(a.FetchBytes)/1e9,
		float64(a.DeliveredBytes())/1e9, a.ByteHitRate()*100)
	if audit {
		runAudit(os.Stdout, st, top)
	}
	return nil
}

// runAudit diffs the realized traffic in a scrape of the proxy's
// decision ledger against the shadow counterfactual: savings against
// always-bypass, the ski-rental lower bound with the live competitive
// ratio, and the objects contributing the most regret. Every figure
// covers the accesses since the proxy started, the realized WAN
// included: after a warm restart it is not the lifetime accounting's.
func runAudit(w io.Writer, dec *wire.ScrapeResultMsg, top int) {
	fmt.Fprintf(w, "\naudit: %d decisions recorded (%d in ring)\n", dec.Recorded, len(dec.Records))
	wan := dec.BypassWANBytes
	if wan == 0 {
		fmt.Fprintln(w, "audit: proxy reports no always-bypass WAN (no access since it started, or a mediator without Shadows)")
		return
	}

	realized := wan - dec.SavedVsBypassBytes
	fmt.Fprintf(w, "realized WAN %14.3f MB (since the proxy started)\n", float64(realized)/1e6)
	fmt.Fprintf(w, "  %-16s %14.3f MB  saved %14.3f MB (%5.1f%%)\n",
		"always-bypass", float64(wan)/1e6, float64(dec.SavedVsBypassBytes)/1e6,
		100*float64(dec.SavedVsBypassBytes)/float64(wan))
	if dec.OptBoundBytes > 0 {
		fmt.Fprintf(w, "ski-rental bound %11.3f MB  → competitive ratio %.3f\n",
			float64(dec.OptBoundBytes)/1e6, float64(dec.CompetitiveRatioMilli)/1000)
	}

	regrets := ledger.Regret(dec.Records)
	if top > len(regrets) {
		top = len(regrets)
	}
	if top > 0 && len(regrets) > 0 && regrets[0].Regret > 0 {
		fmt.Fprintf(w, "top %d regret contributors (from the ring's %d records):\n", top, len(dec.Records))
		for _, or := range regrets[:top] {
			if or.Regret <= 0 {
				break
			}
			fmt.Fprintf(w, "  %-36s %4d accesses  regret %9.3f MB\n",
				or.Object, or.Accesses, float64(or.Regret)/1e6)
		}
	}
}
