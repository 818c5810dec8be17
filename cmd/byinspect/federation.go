package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/wire"
)

// nodeView is one federation member's scrape, or the failure that
// kept it from answering.
type nodeView struct {
	Addr string `json:"addr"`
	*wire.ScrapeResultMsg
	Err string `json:"err,omitempty"`
}

// proxy reports whether the member answered as a proxy: its Source
// names the role.
func (v nodeView) proxy() bool {
	return v.ScrapeResultMsg != nil && v.Source == "byproxyd"
}

// scrapeNode scrapes one daemon in one round trip.
func scrapeNode(addr string, q wire.ScrapeMsg) nodeView {
	v := nodeView{Addr: addr}
	c, err := wire.DialTimeout(addr, dialTimeout)
	if err != nil {
		v.Err = err.Error()
		return v
	}
	defer c.Close()
	if v.ScrapeResultMsg, err = c.Scrape(q); err != nil {
		v.Err = err.Error()
	}
	return v
}

// runFederation scrapes every listed daemon (proxies and database
// nodes), verifies the paper's delivered-bytes invariant across the
// federation, aggregates tail-cause attribution, and merges exemplars
// that share a trace id into cross-node views of the same query.
func runFederation(w io.Writer, addrs []string, q wire.ScrapeMsg, top int, asJSON bool) error {
	views := make([]nodeView, len(addrs))
	for i, addr := range addrs {
		views[i] = scrapeNode(addr, q)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(views)
	}
	renderFederation(w, views, top)
	return nil
}

func renderFederation(w io.Writer, views []nodeView, top int) {
	fmt.Fprintf(w, "federation scrape: %d daemons\n", len(views))
	reachable := 0
	for _, v := range views {
		if v.Err != "" {
			fmt.Fprintf(w, "  %-24s UNREACHABLE: %s\n", v.Addr, v.Err)
			continue
		}
		reachable++
		fmt.Fprintf(w, "  %-24s %-16s   %d exemplars (%d published)\n",
			v.Addr, v.Source, len(v.Exemplars), v.Published)
	}
	if reachable == 0 {
		fmt.Fprintln(w, "no daemon reachable")
		return
	}

	renderInvariant(w, views)
	renderPersistence(w, views)
	renderFederationCauses(w, views)
	var exs []tracedExemplar
	for _, v := range views {
		if v.Err != "" {
			continue
		}
		for _, ex := range v.Exemplars {
			exs = append(exs, tracedExemplar{source: v.Source, ex: ex})
		}
	}
	renderMergedTraces(w, exs, top, false)
}

// renderPersistence reports each proxy's durability plane — warm vs
// cold start, recovery cost, and the snapshot/WAL counters — for
// proxies running with -state-dir (others carry no persist metrics).
func renderPersistence(w io.Writer, views []nodeView) {
	printed := false
	for _, v := range views {
		if !v.proxy() {
			continue
		}
		present := false
		var warm int64
		for _, g := range v.Snapshot.Gauges {
			if g.Name == "persist.warm_start" {
				present, warm = true, g.Value
			}
		}
		if !present {
			continue
		}
		if !printed {
			fmt.Fprintln(w, "\npersistence (per proxy):")
			printed = true
		}
		mode := "cold start"
		if warm == 1 {
			mode = "warm start"
		}
		fmt.Fprintf(w, "  %-24s %s  recovery %dms  replayed %d  snapshots %d (clock %d)  wal records %d  torn tails %d  fallbacks %d\n",
			v.Addr, mode,
			v.Snapshot.GaugeValue("persist.recovery_ms"),
			v.Snapshot.GaugeValue("persist.recovered_records"),
			v.Snapshot.CounterValue("persist.snapshots", ""),
			v.Snapshot.GaugeValue("persist.snapshot_clock"),
			v.Snapshot.CounterValue("persist.wal_records", ""),
			v.Snapshot.CounterValue("persist.wal_torn_tails", ""),
			v.Snapshot.CounterValue("persist.snapshot_fallbacks", ""))
	}
}

// renderInvariant checks the paper's accounting identity on every
// proxy and across the federation: the raw yield accounted for must be
// the bytes delivered, D_A = D_S + D_C — nothing double-counted and
// nothing lost. Each proxy is checked in each of its two reads on its
// own: the metrics snapshot (core.yield_bytes against core.bypass_bytes
// + core.cache_bytes) and the flow accounting (Acct). The scrape reads
// the two under two holds of the decision lock — the registry's
// collector, then the mediator's one reading that Acct is part of — so
// under load they describe different moments and are not compared with
// each other.
func renderInvariant(w io.Writer, views []nodeView) {
	var sumCounter, sumDeliveredCounter, sumLedger, sumDelivered int64
	proxies := 0
	fmt.Fprintln(w, "\nΣ yields = D_A invariant (per proxy):")
	for _, v := range views {
		if !v.proxy() {
			continue
		}
		proxies++
		counter := v.Snapshot.CounterValue("core.yield_bytes", "")
		deliveredCounter := v.Snapshot.CounterValue("core.bypass_bytes", "") + v.Snapshot.CounterValue("core.cache_bytes", "")
		ledgerYield := v.Acct.YieldBytes
		delivered := v.Acct.DeliveredBytes()
		sumCounter += counter
		sumDeliveredCounter += deliveredCounter
		sumLedger += ledgerYield
		sumDelivered += delivered
		verdict := "ok"
		if counter != deliveredCounter || ledgerYield != delivered {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "  %-24s metrics yield %12d  D_A %12d   acct yield %12d  D_A %12d  %s\n",
			v.Addr, counter, deliveredCounter, ledgerYield, delivered, verdict)
	}
	if proxies == 0 {
		fmt.Fprintln(w, "  no proxy in the scrape set")
		return
	}
	status := "SATISFIED"
	if sumCounter != sumDeliveredCounter || sumLedger != sumDelivered {
		status = "VIOLATED"
	}
	fmt.Fprintf(w, "  federation Σ yields %d = D_A %d: %s\n", sumLedger, sumDelivered, status)
}

// renderFederationCauses ranks the tail-cause counters of every
// reachable daemon in one table.
func renderFederationCauses(w io.Writer, views []nodeView) {
	var all obs.Snapshot
	for _, v := range views {
		if v.Err == "" {
			all.Counters = append(all.Counters, v.Snapshot.Counters...)
		}
	}
	writeCauses(w, "federation tail attribution (all daemons, ranked by attributed time)",
		flightrec.TailCauses(all, obs.Snapshot{}))
}

// tracedExemplar pairs an exemplar with the daemon (or the daemon's
// exemplar log) it came from.
type tracedExemplar struct {
	source string
	ex     flightrec.Exemplar
}

// renderMergedTraces joins exemplars across daemons by trace id: a
// slow proxy query and the node-side execution it triggered share the
// propagated trace id, so the merged view shows both halves of the
// same tail event. Exemplars without an id have nothing to join on and
// are left out. With detail, each view is drawn in full
// (renderExemplar) instead of summarised.
func renderMergedTraces(w io.Writer, exs []tracedExemplar, top int, detail bool) {
	byTrace := map[string][]tracedExemplar{}
	for _, te := range exs {
		if te.ex.Trace != "" {
			byTrace[te.ex.Trace] = append(byTrace[te.ex.Trace], te)
		}
	}
	// Rank merged traces by the proxy-side (max) duration; cross-node
	// traces (seen by ≥ 2 daemons) sort before single-view ones.
	type merged struct {
		trace string
		views []tracedExemplar
		durUS int64
	}
	ms := make([]merged, 0, len(byTrace))
	for t, vs := range byTrace {
		sort.Slice(vs, func(i, j int) bool { return vs[i].ex.DurUS > vs[j].ex.DurUS })
		ms = append(ms, merged{trace: t, views: vs, durUS: vs[0].ex.DurUS})
	}
	if len(ms) == 0 {
		return
	}
	sort.Slice(ms, func(i, j int) bool {
		if (len(ms[i].views) > 1) != (len(ms[j].views) > 1) {
			return len(ms[i].views) > 1
		}
		if ms[i].durUS != ms[j].durUS {
			return ms[i].durUS > ms[j].durUS
		}
		return ms[i].trace < ms[j].trace
	})
	if top > len(ms) {
		top = len(ms)
	}
	fmt.Fprintf(w, "\nmerged traces (%d total, showing %d):\n", len(ms), top)
	for _, m := range ms[:top] {
		fmt.Fprintf(w, "  trace %s  (%d daemon views)\n", m.trace, len(m.views))
		for _, tv := range m.views {
			e := tv.ex
			fmt.Fprintf(w, "    %-16s %-8s %8.3fms  cause %-22s %8.3fms\n",
				tv.source, e.Outcome, float64(e.DurUS)/1e3, e.Cause, float64(e.CauseUS)/1e3)
			if detail {
				renderExemplar(w, e)
			} else if e.SQL != "" {
				fmt.Fprintf(w, "      sql: %s\n", oneLine(e.SQL, 84))
			}
		}
	}
}
