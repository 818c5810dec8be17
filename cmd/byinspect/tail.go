package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/wire"
)

// runTail scrapes a daemon's flight recorder and tail-cause counters
// and renders a "why is p99 slow" report: the ranked critical-path
// attribution table (which phase or WAN leg dominated the exceedances)
// followed by the slowest captured exemplars with their per-leg
// breakdowns. With q.Trace set it is the view of one query.
func runTail(w io.Writer, addr string, q wire.ScrapeMsg, top int, asJSON bool) error {
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
	renderTail(w, res, top)
	return nil
}

// writeCauses renders ranked tail causes as a table under title, each
// with its share of the attributed time; nothing when there are none.
func writeCauses(w io.Writer, title string, causes []flightrec.TailCause) {
	if len(causes) == 0 {
		return
	}
	var totalUS int64
	for _, r := range causes {
		totalUS += r.TotalUS
	}
	fmt.Fprintf(w, "\n%s:\n", title)
	fmt.Fprintln(w, "  cause                        dominant     total ms   share")
	for _, r := range causes {
		share := 0.0
		if totalUS > 0 {
			share = 100 * float64(r.TotalUS) / float64(totalUS)
		}
		fmt.Fprintf(w, "  %-26s %10d %12.3f  %5.1f%%\n",
			r.Cause, r.Dominant, float64(r.TotalUS)/1e3, share)
	}
}

func renderTail(w io.Writer, res *wire.ScrapeResultMsg, top int) {
	fmt.Fprintf(w, "flight recorder at %s: %d queries observed, %d exemplars published, threshold %.1fms\n",
		res.Source, res.Observed, res.Published, float64(res.ThresholdUS)/1e3)

	byOutcome := map[string]int64{}
	for _, c := range res.Snapshot.Counters {
		if c.Name == "obs.exemplars" {
			byOutcome[c.Label] = c.Value
		}
	}
	if len(byOutcome) > 0 {
		fmt.Fprintf(w, "outcomes: slow %d, error %d, degraded %d, normal %d\n",
			byOutcome["slow"], byOutcome["error"], byOutcome["degraded"], byOutcome["normal"])
	}

	writeCauses(w, "tail attribution (exceedances, ranked by attributed time)",
		flightrec.TailCauses(res.Snapshot, obs.Snapshot{}))

	if len(res.Exemplars) == 0 {
		fmt.Fprintln(w, "\nno exemplars captured yet")
		return
	}

	// Slowest first for the detail listing.
	exs := append([]flightrec.Exemplar(nil), res.Exemplars...)
	sort.SliceStable(exs, func(i, j int) bool { return exs[i].DurUS > exs[j].DurUS })
	if top > len(exs) {
		top = len(exs)
	}
	fmt.Fprintf(w, "\nslowest %d exemplars:\n", top)
	for _, e := range exs[:top] {
		trace := e.Trace
		if trace == "" {
			trace = "-"
		}
		fmt.Fprintf(w, "  #%d %-8s %8.3fms  cause %-22s %8.3fms  trace %s\n",
			e.Seq, e.Outcome, float64(e.DurUS)/1e3, e.Cause, float64(e.CauseUS)/1e3, trace)
		renderExemplar(w, e)
	}
}

// waterfallWidth is the character width of the per-leg timing bar.
const waterfallWidth = 30

// renderExemplar draws one query's record under its header line: the
// statement, the error, the attributed causes, the per-object decisions,
// the mediation phases, and every WAN leg as a bar from its start offset
// across its wall time within the query's duration — legs that ran in
// parallel overlap.
func renderExemplar(w io.Writer, e flightrec.Exemplar) {
	if e.SQL != "" {
		fmt.Fprintf(w, "      sql: %s\n", oneLine(e.SQL, 88))
	}
	if e.Err != "" {
		fmt.Fprintf(w, "      err: %s\n", oneLine(e.Err, 88))
	}
	for _, p := range e.Attribution {
		fmt.Fprintf(w, "      %-26s %10.3fms\n", p.Cause, float64(p.US)/1e3)
	}
	for _, d := range e.Decisions {
		reason := ""
		if d.Reason != "" {
			reason = "  " + oneLine(d.Reason, 40)
		}
		fmt.Fprintf(w, "      %-8s %-32s %10.3f MB  @%s%s\n", d.Action, d.Object, float64(d.Yield)/1e6, d.Site, reason)
	}
	fmt.Fprintf(w, "      phases: execute %.3fms, decide-wait %.3fms, decide %.3fms, encode %.3fms\n",
		float64(e.ExecUS)/1e3, float64(e.DecideWaitUS)/1e3, float64(e.DecideUS)/1e3, float64(e.EncodeUS)/1e3)
	for _, l := range e.Legs {
		errs := ""
		if l.Err != "" {
			errs = "  err=" + oneLine(l.Err, 40)
		}
		fmt.Fprintf(w, "      %9.3f  +%8.3f  |%s|  %-8s %s (pool %0.3f, rpc %0.3f)%s\n",
			float64(l.StartUS)/1e3, float64(l.WallUS)/1e3,
			waterfallBar(float64(l.StartUS), float64(l.WallUS), float64(e.DurUS)),
			l.Kind, legTarget(l), float64(l.PoolWaitUS)/1e3, float64(l.RPCUS)/1e3, errs)
	}
}

// legTarget names what a leg asked its site for.
func legTarget(l flightrec.LegRec) string {
	if l.Object != "" {
		return l.Object + " @ " + l.Site
	}
	return l.Site
}

// waterfallBar draws a fixed-width bar with the leg's extent marked.
func waterfallBar(offset, dur, total float64) string {
	bar := []byte(strings.Repeat(" ", waterfallWidth))
	if total <= 0 {
		return string(bar)
	}
	lo := int(offset / total * waterfallWidth)
	hi := int((offset + dur) / total * waterfallWidth)
	if lo >= waterfallWidth {
		lo = waterfallWidth - 1
	}
	if hi > waterfallWidth {
		hi = waterfallWidth
	}
	if hi <= lo {
		hi = lo + 1
	}
	for i := lo; i < hi; i++ {
		bar[i] = '='
	}
	return string(bar)
}

// oneLine collapses whitespace and truncates for table rendering.
func oneLine(s string, max int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > max {
		s = s[:max-1] + "…"
	}
	return s
}
