package main

import (
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/daemon"
	"bypassyield/internal/faultnet"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/wire"
)

func testOptions() options {
	return options{
		Flags: daemon.Flags{Release: "edr", Sample: 100000, Seed: 1},
		addr:  "127.0.0.1:0", policy: "rate-profile",
		cachePct: 0.4, gran: "columns",
		rpcTimeout: wire.DefaultRPCTimeout,
	}
}

func TestStartAndQuery(t *testing.T) {
	o := testOptions()
	o.FlightSample = 1
	o.ExemplarOut = filepath.Join(t.TempDir(), "queries.jsonl")
	o.HTTPAddr = "127.0.0.1:0"
	d, err := start(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !strings.Contains(d.desc, "rate-profile") || !strings.Contains(d.desc, "columns") {
		t.Fatalf("description = %q", d.desc)
	}
	c, err := wire.Dial(d.bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("select ra, dec from photoobj where ra < 90")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows <= 0 || len(res.Decisions) == 0 {
		t.Fatalf("result = %+v", res)
	}
	m, err := c.Scrape(wire.ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Acct.Queries != 1 {
		t.Fatalf("queries = %d", m.Acct.Queries)
	}

	// The daemon serves a unified metrics snapshot spanning the
	// federation, core, and engine layers.
	if m.Source != "byproxyd" {
		t.Fatalf("source = %q", m.Source)
	}
	if got := m.Snapshot.CounterValue("federation.queries", ""); got != 1 {
		t.Fatalf("federation.queries = %d", got)
	}
	if m.Snapshot.CounterValue("engine.rows_scanned", "") == 0 {
		t.Fatal("engine counters missing from daemon registry")
	}
	if m.Snapshot.CounterTotal("core.decisions") == 0 {
		t.Fatal("decision counters missing from daemon registry")
	}

	// The same registry backs the HTTP telemetry plane.
	resp, err := http.Get("http://" + d.HTTP.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{"federation_queries 1", "core_yield_bytes"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if resp, err := http.Get("http://" + d.HTTP.Addr + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// -flight-sample 1 -exemplar-out wrote the query's record (the
	// capture closes after the reply is sent, so wait for it).
	deadline := time.Now().Add(2 * time.Second)
	for {
		b, _ := os.ReadFile(o.ExemplarOut)
		if strings.Contains(string(b), `"sql":"select ra, dec from photoobj where ra \u003c 90"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("exemplar log missing the query: %q", b)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFlagSurface pins the daemon's options: adding, renaming or
// removing a flag, or changing its default, is a reviewed edit of these
// lists.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "cache-pct", "chaos", "chaos-seed", "exemplar-out",
		"flight-sample", "flight-threshold", "granularity", "http",
		"ledger-out", "max-inflight", "nodes", "policy",
		"recovery-log", "release", "rpc-timeout", "sample", "seed",
		"snapshot-interval", "state-dir", "wal-sync",
	}
	defaults := map[string]string{
		"addr": ":7100", "cache-pct": "0.4", "chaos": "", "chaos-seed": "1",
		"exemplar-out":  "",
		"flight-sample": "256", "flight-threshold": "250ms", "granularity": "columns",
		"http": "", "ledger-out": "", "max-inflight": "64",
		"nodes": "", "policy": "rate-profile",
		"recovery-log": "", "release": "edr", "rpc-timeout": "10s", "sample": "1000",
		"seed": "1", "snapshot-interval": "30s", "state-dir": "", "wal-sync": "false",
	}
	fs := flag.NewFlagSet("byproxyd", flag.ContinueOnError)
	registerFlags(fs, new(options))
	var got []string
	fs.VisitAll(func(f *flag.Flag) { // in name order
		got = append(got, f.Name)
		if def, ok := defaults[f.Name]; !ok || f.DefValue != def {
			t.Errorf("-%s defaults to %q, want %q", f.Name, f.DefValue, def)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %q (%d)\nwant    %q (%d)", got, len(got), want, len(want))
	}
}

func TestStartLedgerFlags(t *testing.T) {
	o := testOptions()
	o.ledgerOut = filepath.Join(t.TempDir(), "decisions.jsonl")
	d, err := start(o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(d.bound)
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	if _, err := c.Query("select ra from photoobj where ra < 90"); err != nil {
		t.Fatal(err)
	}
	dec, err := c.Scrape(wire.ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Recorded == 0 || len(dec.Records) == 0 {
		t.Fatalf("decisions = %+v, want records for the query", dec)
	}
	if saved := dec.Snapshot.GaugeValue("core.bytes_saved_vs_bypass"); dec.Acct.YieldBytes == 0 || saved != dec.Acct.YieldBytes-dec.Acct.WANBytes() {
		t.Fatalf("core.bytes_saved_vs_bypass = %d, want D_A %d less the realized WAN %d", saved, dec.Acct.YieldBytes, dec.Acct.WANBytes())
	}
	c.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// -ledger-out persisted every record as JSONL: the log reads back
	// as what the scrape reports was decided.
	f, err := os.Open(o.ledgerOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	logged, err := obs.ReadJSONL[ledger.DecisionRecord](f)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(logged)) != dec.Recorded || !reflect.DeepEqual(logged, dec.Records) {
		t.Fatalf("ledger log = %+v (%d records)\nwant the scrape's %+v (%d recorded)", logged, len(logged), dec.Records, dec.Recorded)
	}
}

func TestStartErrors(t *testing.T) {
	cases := []struct {
		name string
		set  func(o *options)
	}{
		{"bad release", func(o *options) { o.Release = "dr9" }},
		{"bad policy", func(o *options) { o.policy = "magic" }},
		{"bad granularity", func(o *options) { o.gran = "rows" }},
		{"bad nodes", func(o *options) { o.nodes = "no-equals-sign" }},
		{"wal-sync without state-dir", func(o *options) { o.walSync = true }},
		{"recovery-log without state-dir", func(o *options) { o.recoveryLog = filepath.Join(t.TempDir(), "recovery.log") }},
		{"persist-faults without state-dir", func(o *options) { o.persistFaults = "wal.append.mid-record:after=40" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := testOptions()
			tc.set(&o)
			if _, err := start(o); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestFailedStartFreesTheHTTPPort: a start that fails, before or after
// the -http listener is bound, leaves that port free to listen on
// again.
func TestFailedStartFreesTheHTTPPort(t *testing.T) {
	for name, set := range map[string]func(o *options){
		"persist-faults without state-dir": func(o *options) { o.persistFaults = "wal.append.mid-record:after=40" },
		"unbindable -addr":                 func(o *options) { o.addr = "256.0.0.1:bogus" },
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			o := testOptions()
			o.HTTPAddr = addr
			o.ExemplarOut = filepath.Join(t.TempDir(), "queries.jsonl")
			o.Chaos = "spec.sdss.org:blackhole,after=5s,for=10s"
			set(&o)
			if _, err := start(o); err == nil {
				t.Fatal("expected error")
			}
			ln, err = net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("the failed start left -http %s bound: %v", addr, err)
			}
			ln.Close()
		})
	}
}

func TestStartBadHTTPAddr(t *testing.T) {
	o := testOptions()
	o.HTTPAddr = "256.0.0.1:bogus"
	if _, err := start(o); err == nil {
		t.Fatal("unbindable -http address should fail startup")
	}
}

// TestChaosUsageExamplesParse: every plan quoted in the -chaos flag's
// usage is one faultnet.ParsePlan accepts, so the help never shows an
// example the daemon would refuse.
func TestChaosUsageExamplesParse(t *testing.T) {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	registerFlags(fs, new(options))
	parts := strings.Split(fs.Lookup("chaos").Usage, "'")
	if len(parts) < 3 {
		t.Fatalf("-chaos usage %q quotes no example", fs.Lookup("chaos").Usage)
	}
	for i := 1; i < len(parts); i += 2 {
		if _, err := faultnet.ParsePlan(parts[i], 1); err != nil {
			t.Errorf("-chaos example %q: %v", parts[i], err)
		}
	}
}
