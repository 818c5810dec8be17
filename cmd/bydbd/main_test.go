package main

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/daemon"
	"bypassyield/internal/faultnet"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/wire"
)

func testOptions() options {
	return options{
		Flags: daemon.Flags{Release: "edr", Sample: 100000, Seed: 1},
		site:  catalog.SiteSpec, addr: "127.0.0.1:0",
	}
}

func TestStartAndServe(t *testing.T) {
	o := testOptions()
	o.FlightSample = 1
	o.ExemplarOut = filepath.Join(t.TempDir(), "queries.jsonl")
	o.HTTPAddr = "127.0.0.1:0"
	d, err := start(o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(d.bound)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("select z from specobj where z < 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows <= 0 {
		t.Fatal("no rows from node")
	}
	// A traced query's record carries the caller's trace id.
	traceID := obs.NewID()
	if _, err := c.QueryTraced("select z from specobj where z < 2", traceID); err != nil {
		t.Fatal(err)
	}
	// The node holds only its site's tables.
	if _, err := c.Query("select ra from photoobj where ra < 10"); err == nil {
		t.Fatal("foreign-site table should be rejected")
	}

	// HTTP telemetry plane serves the node's registry.
	resp, err := http.Get("http://" + d.HTTP.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "dbnode_queries") {
		t.Fatalf("GET /metrics: %d\n%s", resp.StatusCode, body)
	}

	// Close flushes the exemplar log: with -flight-sample 1 every
	// sub-query's record must be on disk afterwards, the traced one
	// carrying the client's trace id and the others none. The client must
	// disconnect first — Close waits for in-flight connections.
	c.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.ExemplarOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	exs, err := obs.ReadJSONL[flightrec.Exemplar](f)
	if err != nil || len(exs) != 3 {
		t.Fatalf("exemplar log: %d records, %v; want the 3 sub-queries", len(exs), err)
	}
	if exs[0].Trace != "" || exs[1].Trace != obs.FormatID(traceID) || exs[2].Outcome != flightrec.OutcomeError {
		t.Fatalf("exemplar log = %+v", exs)
	}
}

// TestFlagSurface pins the daemon's options: adding, renaming or
// removing a flag, or changing its default, is a reviewed edit of these
// lists.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "chaos", "chaos-seed", "exemplar-out", "flight-sample",
		"flight-threshold", "http", "release", "sample", "seed", "site",
	}
	defaults := map[string]string{
		"addr": ":7101", "chaos": "", "chaos-seed": "1", "exemplar-out": "",
		"flight-sample": "256", "flight-threshold": "250ms",
		"http": "", "release": "edr", "sample": "1000", "seed": "1", "site": "photo.sdss.org",
	}
	fs := flag.NewFlagSet("bydbd", flag.ContinueOnError)
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

// TestFailedStartClosesEverything: a start that fails after opening the
// exemplar log leaves it open nowhere. Only the descriptors open on the
// log are counted: a socket another test closes asynchronously must not
// count for or against this start.
func TestFailedStartClosesEverything(t *testing.T) {
	o := testOptions()
	o.ExemplarOut = filepath.Join(t.TempDir(), "queries.jsonl")
	o.Chaos = "latency=soon"
	onLog := func() (n int) {
		es, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to find open files in:", err)
		}
		for _, e := range es {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && target == o.ExemplarOut {
				n++
			}
		}
		return n
	}
	if _, err := start(o); err == nil {
		t.Fatal("a malformed -chaos should fail startup")
	}
	if _, err := os.Stat(o.ExemplarOut); err != nil {
		t.Fatalf("the failed start did not get as far as opening the exemplar log: %v", err)
	}
	if n := onLog(); n != 0 {
		t.Fatalf("%d descriptors still open on the exemplar log after a failed start", n)
	}
}

func TestStartErrors(t *testing.T) {
	o := testOptions()
	o.Release = "dr9"
	if _, err := start(o); err == nil {
		t.Fatal("unknown release should error")
	}
	o = testOptions()
	o.site = "nowhere"
	if _, err := start(o); err == nil {
		t.Fatal("siteless node should error")
	}
	o = testOptions()
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
