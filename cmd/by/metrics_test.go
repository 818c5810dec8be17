package main

import (
	"encoding/json"
	"strings"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/wire"
)

// liveProxy starts an instrumented proxy and pushes a few queries
// through it so the snapshot has content to render.
func liveProxy(t *testing.T) string {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 100000})
	if err != nil {
		t.Fatal(err)
	}
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db,
		Policy:      core.NewRateProfile(core.RateProfileConfig{Capacity: s.TotalBytes()}),
		Granularity: federation.Columns,
		Obs:         obs.NewRegistry(),
		Ledger:      ledger.New(1024),
		Shadows:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := wire.NewProxy(med, federation.Columns, nil)
	p.SetLogf(func(string, ...any) {})
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Query("select ra, dec from photoobj where ra between 0 and 350"); err != nil {
			t.Fatal(err)
		}
	}
	return addr
}

func TestRunLiveTable(t *testing.T) {
	addr := liveProxy(t)
	out, err := by("metrics", "-addr", addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"metrics from byproxyd",
		"core.decisions",
		"rate-profile/bypass",
		"federation.query_latency_us",
		"histograms:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunLiveJSON(t *testing.T) {
	addr := liveProxy(t)
	out, err := by("metrics", "-addr", addr, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var m wire.ScrapeResultMsg
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if m.Source != "byproxyd" || m.Snapshot.CounterTotal("core.decisions") == 0 {
		t.Fatalf("decoded = %+v", m)
	}
}

func TestRunDecisionsTable(t *testing.T) {
	addr := liveProxy(t)
	out, err := by("decisions", "-addr", addr, "-top", "5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"decision ledger:",
		"by action:",
		"recent decisions",
		"edr/photoobj.ra",
		"vs always-bypass",
		"ski-rental lower bound",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n  vs "); n != 1 {
		t.Fatalf("%d counterfactual lines, want the one against always-bypass:\n%s", n, out)
	}

	// Action filter narrows the record list to loads only.
	if out, err = by("decisions", "-addr", addr, "-action", "load", "-top", "5"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, " bypass ") || strings.Contains(out, " hit ") {
		t.Fatalf("action=load output contains other actions:\n%s", out)
	}
}

func TestRunDecisionsJSON(t *testing.T) {
	addr := liveProxy(t)
	out, err := by("decisions", "-addr", addr, "-top", "5", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var res wire.ScrapeResultMsg
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if res.Recorded == 0 || len(res.Records) == 0 || res.BypassWANBytes == 0 {
		t.Fatalf("decoded = %+v", res)
	}
}

func TestRunLiveErrors(t *testing.T) {
	if _, err := by("metrics", "-addr", "127.0.0.1:1"); err == nil {
		t.Fatal("dial failure should error")
	}
}
