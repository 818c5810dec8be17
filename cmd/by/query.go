package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"strings"

	"bypassyield/internal/obs"
	"bypassyield/internal/wire"
)

// queryFlags is `by query`: it sends one statement, the arguments
// joined, or else stdin's statements, one a line, to a proxy and prints
// each one's bounded result sample, per-object cache decisions and the
// trace id it was sent under (`by tail -trace-id` and `by decisions
// -trace-id` look the query's records up by it).
func queryFlags(fs *flag.FlagSet) func(env, []string) error {
	ep := endpointFlags(fs, "proxy address")
	rows := fs.Bool("rows", true, "print the sampled result rows")
	return func(e env, args []string) error {
		c, err := ep.dial()
		if err != nil {
			return err
		}
		defer c.Close()
		if len(args) > 0 {
			return query(e.stdout, c, strings.Join(args, " "), *rows)
		}
		sc := bufio.NewScanner(e.stdin)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			sql := strings.TrimSpace(sc.Text())
			if sql == "" {
				continue
			}
			if err := query(e.stdout, c, sql, *rows); err != nil {
				fmt.Fprintln(e.stderr, "by query:", err)
			}
		}
		return sc.Err()
	}
}

func query(w io.Writer, c *wire.Client, sql string, printRows bool) error {
	traceID := obs.NewID()
	res, err := c.QueryTraced(sql, traceID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d rows, %.3f MB yield, trace %s\n", res.Rows, float64(res.Bytes)/1e6, obs.FormatID(traceID))
	if printRows && len(res.Tuples) > 0 {
		fmt.Fprintln(w, strings.Join(res.Columns, "\t"))
		for _, tu := range res.Tuples {
			cells := make([]string, len(tu))
			for i, v := range tu {
				cells[i] = fmt.Sprintf("%g", v)
			}
			fmt.Fprintln(w, strings.Join(cells, "\t"))
		}
		if int64(len(res.Tuples)) < res.Rows {
			fmt.Fprintf(w, "... (%d more rows at logical scale)\n", res.Rows-int64(len(res.Tuples)))
		}
	}
	for _, d := range res.Decisions {
		fmt.Fprintf(w, "  %-8s %-32s %10.3f MB  @%s\n", d.Decision, d.Object, float64(d.Yield)/1e6, d.Site)
	}
	for _, e := range res.TransportErrors {
		fmt.Fprintf(w, "  transport error @%s: %s\n", e.Site, e.Error)
	}
	return nil
}

// statsFlags is `by stats`: a proxy's flow accounting.
func statsFlags(fs *flag.FlagSet) func(env, []string) error {
	ep := endpointFlags(fs, "proxy address")
	return func(e env, _ []string) error {
		st, err := scrape(ep.addr, ep.timeout, wire.ScrapeMsg{})
		if err != nil {
			return err
		}
		renderAccounting(e.stdout, st)
		return nil
	}
}

// renderAccounting prints a proxy's flow accounting from its scrape:
// its policy and cache, what it decided, and the bytes it moved.
func renderAccounting(w io.Writer, st *wire.ScrapeResultMsg) {
	a := st.Acct
	fmt.Fprintf(w, "policy:        %s (%s granularity)\n", st.Policy, st.Granularity)
	fmt.Fprintf(w, "cache:         %d / %d MB used\n", st.CacheUsed>>20, st.CacheCapacity>>20)
	fmt.Fprintf(w, "queries:       %d (%d accesses)\n", a.Queries, a.Accesses)
	fmt.Fprintf(w, "decisions:     %d hits, %d bypasses, %d loads, %d evictions\n",
		a.Hits, a.Bypasses, a.Loads, a.Evictions)
	fmt.Fprintf(w, "WAN traffic:   %.3f MB (bypass %.3f + fetch %.3f)\n",
		float64(a.WANBytes())/1e6, float64(a.BypassBytes)/1e6, float64(a.FetchBytes)/1e6)
	fmt.Fprintf(w, "delivered:     %.3f MB (cache %.3f + server %.3f)\n",
		float64(a.DeliveredBytes())/1e6, float64(a.CacheBytes)/1e6, float64(a.BypassBytes)/1e6)
	fmt.Fprintf(w, "byte hit rate: %.1f%%\n", a.ByteHitRate()*100)
	fmt.Fprintf(w, "transport:     %d B tx, %d B rx to nodes\n", st.TransportTx, st.TransportRx)
}
