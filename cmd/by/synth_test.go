package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/faultnet"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/synth"
	"bypassyield/internal/wire"
)

func TestLoadScenarioPrecedence(t *testing.T) {
	// Canned by name, with overrides.
	sc, err := loadScenario(synthOptions{scenario: "steady", seed: 99, release: "dr1", arrival: "uniform", timeScale: 2, rpsScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "steady" || sc.Seed != 99 || sc.Release != "dr1" || sc.Arrival != "uniform" {
		t.Fatalf("overrides not applied: %+v", sc)
	}
	if got := sc.TotalDuration(); got != 5*time.Second {
		t.Fatalf("time-scale 2 on steady: duration = %v, want 5s", got)
	}

	// The slot grammar builds an ad-hoc scenario.
	sc, err = loadScenario(synthOptions{slots: "ramp:10..40x2s", scenario: "steady", timeScale: 1, rpsScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "adhoc" || len(sc.Slots) != 1 || sc.Slots[0].Shape != synth.ShapeRamp {
		t.Fatalf("slots grammar ignored: %+v", sc)
	}

	// A spec file wins over both.
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{"name":"from-file","seed":3,"slots":[{"shape":"constant","rps":5,"duration":"1s"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err = loadScenario(synthOptions{specPath: spec, slots: "constant:1x1s", scenario: "steady", timeScale: 1, rpsScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "from-file" {
		t.Fatalf("spec file did not win: %+v", sc)
	}

	for _, name := range []string{"no-such", "saturation"} {
		if _, err := loadScenario(synthOptions{scenario: name}); err == nil || !strings.Contains(err.Error(), "steady") {
			t.Fatalf("unknown canned name %q should list the choices, got %v", name, err)
		}
	}
	// Overrides are validated: a bad arrival mode fails loudly.
	if _, err := loadScenario(synthOptions{scenario: "steady", arrival: "bursty", timeScale: 1, rpsScale: 1}); err == nil {
		t.Fatal("bad -arrival accepted")
	}
}

// testFederation stands up an in-process EDR federation — engine, one
// DBNode per site, mediating proxy — optionally with a fault injector
// on the proxy's node connections. It returns the client address and
// the proxy for flight-recorder inspection.
func testFederation(t *testing.T, inj *faultnet.Injector) (string, *wire.Proxy) {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 100000})
	if err != nil {
		t.Fatal(err)
	}
	quiet := func(string, ...any) {}

	addrs := map[string]string{}
	for _, site := range []string{catalog.SitePhoto, catalog.SiteSpec, catalog.SiteMeta} {
		n := wire.NewDBNode(site, db)
		n.SetLogf(quiet)
		naddr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs[site] = naddr
	}

	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Granularity: federation.Tables, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := wire.NewProxy(med, federation.Tables, addrs)
	proxy.SetLogf(quiet)
	if inj != nil {
		proxy.SetDialer(func(_, a string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err != nil {
				return nil, err
			}
			return inj.Conn(c), nil
		})
	}
	addr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return addr, proxy
}

// TestRunAgainstProxy drives the full command path — waitReady, a
// scaled canned scenario, JSON report to -out — against a healthy
// in-process federation.
func TestRunAgainstProxy(t *testing.T) {
	addr, _ := testFederation(t, nil)
	out := filepath.Join(t.TempDir(), "report.json")
	table, err := by("synth", "-addr", addr, "-scenario", "steady", "-time-scale", "10", "-rps-scale", "0.5",
		"-max-inflight", "32", "-wait", "5s", "-out", out, "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep synth.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, data)
	}
	// steady is 100 rps × 10s; scaled ÷10 in time and ×0.5 in rate it
	// targets ~50 ops in 1s.
	if rep.Scenario != "steady" || rep.TargetOps == 0 || rep.Completed == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Completed != rep.Dispatched || rep.Errors != 0 {
		t.Fatalf("healthy federation dropped queries: %+v", rep)
	}
	if rep.Latency.P50US <= 0 || rep.Latency.P999US < rep.Latency.P50US {
		t.Fatalf("latency = %+v", rep.Latency)
	}
	// The proxy scrape fills the decision-class byte flow; an EDR run
	// with no policy moves every byte over the WAN (bypass).
	if rep.Proxy == nil || rep.Proxy.Queries == 0 {
		t.Fatalf("proxy delta missing: %+v", rep.Proxy)
	}
	if rep.Proxy.YieldBytes == 0 {
		t.Fatalf("proxy saw no yield: %+v", rep.Proxy)
	}
	if !strings.Contains(table, "achieved") {
		t.Fatalf("table output missing:\n%s", table)
	}
}

// TestWaitNoScrape: a -no-scrape target speaks only MsgQuery, so -wait
// must take a successful dial as ready, not wait on a metrics reply the
// target will never send.
func TestWaitNoScrape(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					typ, _, _, err := wire.ReadFrame(conn)
					if err != nil || typ != wire.MsgQuery {
						return
					}
					if _, err := wire.WriteFrame(conn, wire.MsgResult, wire.ResultMsg{Columns: []string{"x"}, Rows: 1, Bytes: 100}); err != nil {
						return
					}
				}
			}()
		}
	}()
	out, err := by("synth", "-addr", ln.Addr().String(), "-slots", "constant:20x1s", "-arrival", "uniform",
		"-wait", "1s", "-no-scrape", "-quiet")
	if err != nil {
		t.Fatalf("-wait -no-scrape against a MsgQuery-only target: %v", err)
	}
	if !strings.Contains(out, "20 completed") {
		t.Fatalf("run did not complete its 20 ops:\n%s", out)
	}
}

// TestChaosSynth is the CI chaos satellite: a short steady run with
// fault injection on both the proxy's node legs and the client
// connections must record nonzero errors or degraded results — and
// still produce a clean report with the accounting identities intact
// (exit 0; failures under chaos are data). The flight recorder must
// capture the faults as complete exemplars; with CHAOS_EXEMPLARS_OUT
// set, they are also streamed to a JSONL file (archived by CI).
func TestChaosSynth(t *testing.T) {
	inj := faultnet.NewInjector(7)
	inj.Set(faultnet.Faults{Latency: time.Millisecond, ResetProb: 0.05})
	addr, proxy := testFederation(t, inj)

	if path := os.Getenv("CHAOS_EXEMPLARS_OUT"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		proxy.Flight().SetSink(obs.NewJSONL[flightrec.Exemplar](f).Append)
	}

	clientChaos := faultnet.NewInjector(11)
	clientChaos.Set(faultnet.Faults{ResetProb: 0.02})

	sc, err := synth.Canned("steady")
	if err != nil {
		t.Fatal(err)
	}
	sc.Scale(5, 0.8) // 2s at 80 rps
	rep, err := synth.Run(context.Background(), sc, synth.RunConfig{
		Addr:        addr,
		MaxInflight: 32,
		Dialer: func(a string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err != nil {
				return nil, err
			}
			return clientChaos.Conn(c), nil
		},
	})
	if err != nil {
		t.Fatalf("chaos run must not fail the process: %v", err)
	}
	if rep.Errors+rep.Degraded == 0 {
		t.Fatalf("chaos run saw no faults: %+v", rep)
	}
	if rep.Completed == 0 {
		t.Fatalf("chaos run completed nothing: %+v", rep)
	}
	if got := rep.Completed + rep.Errors + rep.Abandoned; got != rep.Dispatched {
		t.Fatalf("identity broken under chaos: completed %d + errors %d + abandoned %d ≠ dispatched %d",
			rep.Completed, rep.Errors, rep.Abandoned, rep.Dispatched)
	}

	// The probabilistic draws above may land entirely on client
	// connections (which the proxy never mediates); hard-fail every
	// node leg for a few direct queries so at least one server-side
	// fault exemplar exists deterministically.
	inj.Set(faultnet.Faults{ResetProb: 1})
	cl, err := wire.DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		// Minted correlation ids double as the traced-exemplar fixture.
		cl.QueryTraced("select z, zconf from specobj where z < 3", obs.NewID()) // errors are the point
	}
	cl.Close()
	inj.Set(faultnet.Faults{})

	// The proxy's flight recorder saw the same chaos: at least one
	// error or degraded exemplar, captured completely — query text,
	// duration, attribution, and a live runtime snapshot.
	exs := proxy.Flight().Snapshot()
	hit := 0
	for _, e := range exs {
		if e.Outcome != flightrec.OutcomeError && e.Outcome != flightrec.OutcomeDegraded {
			continue
		}
		hit++
		if e.SQL == "" || e.DurUS <= 0 {
			t.Fatalf("incomplete exemplar: %+v", e)
		}
		if e.Outcome == flightrec.OutcomeError && e.Err == "" {
			t.Fatalf("error exemplar without error text: %+v", e)
		}
		if len(e.Attribution) == 0 || e.Cause == "" {
			t.Fatalf("exemplar missing attribution: %+v", e)
		}
		if e.Runtime.Goroutines <= 0 || e.Runtime.HeapAllocBytes <= 0 {
			t.Fatalf("exemplar missing runtime snapshot: %+v", e)
		}
		// Degraded results come from failed or partial legs. When the
		// breaker is already open the leg fast-fails before any wire
		// activity, so no LegRec exists — but the decision record must
		// still name the failed site so the exemplar stays explainable.
		if e.Outcome == flightrec.OutcomeDegraded && len(e.Legs) == 0 && len(e.Decisions) == 0 {
			t.Fatalf("degraded exemplar with neither legs nor decisions: %+v", e)
		}
	}
	if hit == 0 {
		t.Fatalf("chaos run (%d errors, %d degraded) published no fault exemplar among %d",
			rep.Errors, rep.Degraded, len(exs))
	}
	// Per-op minted correlation ids reach the recorder.
	traced := 0
	for _, e := range exs {
		if e.Trace != "" {
			traced++
		}
	}
	if traced == 0 {
		t.Fatalf("no exemplar carries a trace id: %+v", exs)
	}
	t.Logf("chaos: %d completed, %d errors, %d degraded, %d shed; %d fault exemplars (%d traced)",
		rep.Completed, rep.Errors, rep.Degraded, rep.Shed, hit, traced)
}

// TestSLOGate: -slo-fail turns attainment into an exit code — an
// impossible objective must fail the run after the report is written,
// an easy one must pass.
func TestSLOGate(t *testing.T) {
	addr, _ := testFederation(t, nil)
	base := []string{"synth", "-addr", addr, "-scenario", "steady", "-time-scale", "20", "-rps-scale", "0.25",
		"-max-inflight", "32", "-wait", "5s", "-quiet"}

	if _, err := by(append(base, "-slo-fail", "0.01")...); err != nil {
		t.Fatalf("easy slo gate failed: %v", err)
	}

	// Nothing completes in a nanosecond.
	out, err := by(append(base, "-slo", "1ns", "-slo-fail", "0.99")...)
	if err == nil || !strings.Contains(err.Error(), "slo gate") {
		t.Fatalf("impossible slo gate passed: %v", err)
	}
	// The report must still have been rendered before the gate fired.
	if !strings.Contains(out, "achieved") {
		t.Fatalf("gate failure swallowed the report:\n%s", out)
	}
}
