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
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/wire"
)

func testOptions() options {
	return options{
		release: "edr", site: catalog.SiteSpec, addr: "127.0.0.1:0",
		sample: 100000, seed: 1,
	}
}

func TestStartAndServe(t *testing.T) {
	o := testOptions()
	o.flightSample = 1
	o.exemplarOut = filepath.Join(t.TempDir(), "queries.jsonl")
	o.httpAddr = "127.0.0.1:0"
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
	resp, err := http.Get("http://" + d.http.Addr + "/metrics")
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
	f, err := os.Open(o.exemplarOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	exs, err := flightrec.ReadJSONL(f)
	if err != nil || len(exs) != 3 {
		t.Fatalf("exemplar log: %d records, %v; want the 3 sub-queries", len(exs), err)
	}
	if exs[0].Trace != "" || exs[1].Trace != obs.FormatID(traceID) || exs[2].Outcome != flightrec.OutcomeError {
		t.Fatalf("exemplar log = %+v", exs)
	}
}

// TestFlagSurface pins the daemon's options: adding, renaming or
// removing a flag is a reviewed edit of this list.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "chaos", "chaos-seed", "exemplar-out", "flight-cap", "flight-sample",
		"flight-threshold", "http", "release", "sample", "seed", "site",
	}
	fs := flag.NewFlagSet("bydbd", flag.ContinueOnError)
	registerFlags(fs, new(options))
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // in name order
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %q (%d)\nwant    %q (%d)", got, len(got), want, len(want))
	}
}

func TestStartErrors(t *testing.T) {
	o := testOptions()
	o.release = "dr9"
	if _, err := start(o); err == nil {
		t.Fatal("unknown release should error")
	}
	o = testOptions()
	o.site = "nowhere"
	if _, err := start(o); err == nil {
		t.Fatal("siteless node should error")
	}
	o = testOptions()
	o.httpAddr = "256.0.0.1:bogus"
	if _, err := start(o); err == nil {
		t.Fatal("unbindable -http address should fail startup")
	}
}
