// Command byquery is a SQL client for the bypass-yield proxy: it
// sends one statement (or a stdin stream of statements), prints the
// bounded result sample, the per-object cache decisions and the trace
// id it sent the statement under (byinspect -tail -trace-id and
// -decisions -trace-id look the query's records up by it), and — with
// -stats — the proxy's flow accounting.
//
// Usage:
//
//	byquery -addr localhost:7100 "select ra, dec from photoobj where ra < 10"
//	byquery -addr localhost:7100 -stats
//	echo "select count(*) from specobj" | byquery -addr localhost:7100
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bypassyield/internal/obs"
	"bypassyield/internal/wire"
)

func main() {
	var (
		addr   = flag.String("addr", "localhost:7100", "proxy address")
		stats  = flag.Bool("stats", false, "print proxy statistics and exit")
		rows   = flag.Bool("rows", true, "print the sampled result rows")
		dialTO = flag.Duration("dial-timeout", wire.DefaultDialTimeout, "connect timeout")
	)
	flag.Parse()

	if err := run(*addr, *dialTO, *stats, *rows, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "byquery:", err)
		os.Exit(1)
	}
}

func run(addr string, dialTimeout time.Duration, stats, printRows bool, args []string) error {
	client, err := wire.DialTimeout(addr, dialTimeout)
	if err != nil {
		return err
	}
	defer client.Close()

	if stats {
		return printStats(client)
	}
	if len(args) > 0 {
		return query(client, strings.Join(args, " "), printRows)
	}
	// Read statements from stdin, one per line.
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		sql := strings.TrimSpace(sc.Text())
		if sql == "" {
			continue
		}
		if err := query(client, sql, printRows); err != nil {
			fmt.Fprintln(os.Stderr, "byquery:", err)
		}
	}
	return sc.Err()
}

func query(client *wire.Client, sql string, printRows bool) error {
	traceID := obs.NewID()
	res, err := client.QueryTraced(sql, traceID)
	if err != nil {
		return err
	}
	fmt.Printf("%d rows, %.3f MB yield, trace %s\n", res.Rows, float64(res.Bytes)/1e6, obs.FormatID(traceID))
	if printRows && len(res.Tuples) > 0 {
		fmt.Println(strings.Join(res.Columns, "\t"))
		for _, tu := range res.Tuples {
			cells := make([]string, len(tu))
			for i, v := range tu {
				cells[i] = fmt.Sprintf("%g", v)
			}
			fmt.Println(strings.Join(cells, "\t"))
		}
		if int64(len(res.Tuples)) < res.Rows {
			fmt.Printf("... (%d more rows at logical scale)\n", res.Rows-int64(len(res.Tuples)))
		}
	}
	for _, d := range res.Decisions {
		fmt.Printf("  %-8s %-32s %10.3f MB  @%s\n", d.Decision, d.Object, float64(d.Yield)/1e6, d.Site)
	}
	for _, e := range res.TransportErrors {
		fmt.Printf("  transport error @%s: %s\n", e.Site, e.Error)
	}
	return nil
}

func printStats(client *wire.Client) error {
	st, err := client.Scrape(wire.ScrapeMsg{})
	if err != nil {
		return err
	}
	a := st.Acct
	fmt.Printf("policy:        %s (%s granularity)\n", st.Policy, st.Granularity)
	fmt.Printf("cache:         %d / %d MB used\n", st.CacheUsed>>20, st.CacheCapacity>>20)
	fmt.Printf("queries:       %d (%d accesses)\n", a.Queries, a.Accesses)
	fmt.Printf("decisions:     %d hits, %d bypasses, %d loads, %d evictions\n",
		a.Hits, a.Bypasses, a.Loads, a.Evictions)
	fmt.Printf("WAN traffic:   %.3f MB (bypass %.3f + fetch %.3f)\n",
		float64(a.WANBytes())/1e6, float64(a.BypassBytes)/1e6, float64(a.FetchBytes)/1e6)
	fmt.Printf("delivered:     %.3f MB (cache %.3f + server %.3f)\n",
		float64(a.DeliveredBytes())/1e6, float64(a.CacheBytes)/1e6, float64(a.BypassBytes)/1e6)
	fmt.Printf("byte hit rate: %.1f%%\n", a.ByteHitRate()*100)
	fmt.Printf("transport:     %d B tx, %d B rx to nodes\n", st.TransportTx, st.TransportRx)
	return nil
}
