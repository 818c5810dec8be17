// Command bysynth synthesizes a workload scenario and drives it
// open-loop against a live byproxyd, reporting latency quantiles, SLO
// attainment, achieved-vs-target throughput, and the proxy's byte
// flow by decision class over the run window.
//
// Scenarios come from three places, in precedence order: -spec (a
// JSON file, the full model — named RPS slots, per-tenant mixes, Zipf
// skew, size shaping), -slots (the compact flag grammar,
// single-tenant), or -scenario (a canned name; see -list).
//
// The harness is open-loop: the arrival schedule is fixed before the
// run starts and never waits on completions. When the proxy falls
// behind, arrivals past the in-flight cap are shed and counted — so
// overload shows up as achieved < target plus a nonzero shed counter,
// with the full queueing delay charged to the latency histogram,
// instead of the coordinated omission a closed-loop driver hides.
//
// Usage:
//
//	bysynth -addr localhost:7100                      # canned "steady"
//	bysynth -addr localhost:7100 -scenario rampx4 -out report.json
//	bysynth -addr localhost:7100 -slots 'constant:100x30s,ramp:100..400x1m'
//	bysynth -addr localhost:7100 -spec nightly.json -time-scale 4
//	bysynth -list
//
// Per-query failures, degraded results, and shedding are report data,
// not process failures: bysynth exits nonzero only when the run
// cannot proceed at all (bad spec, unreachable proxy after -wait) —
// or when -slo-fail is set and attainment lands below it, turning the
// harness into a CI latency gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bypassyield/internal/synth"
	"bypassyield/internal/wire"
)

type options struct {
	addr     string
	scenario string
	specPath string
	slots    string

	release string
	seed    int64
	arrival string

	maxInflight int
	slo         time.Duration
	dialTimeout time.Duration
	drain       time.Duration
	timeScale   float64
	rpsScale    float64
	wait        time.Duration

	out      string
	asJSON   bool
	quiet    bool
	noScrape bool
	sloFail  float64
}

func main() {
	var o options
	list := flag.Bool("list", false, "list canned scenarios and exit")
	flag.StringVar(&o.addr, "addr", "localhost:7100", "byproxyd client address")
	flag.StringVar(&o.scenario, "scenario", "steady", "canned scenario name (see -list)")
	flag.StringVar(&o.specPath, "spec", "", "JSON scenario spec file (overrides -scenario and -slots)")
	flag.StringVar(&o.slots, "slots", "", "compact slot grammar, e.g. 'constant:100x30s,ramp:50..200x1m,sine:80~60x2m/30s' (overrides -scenario)")
	flag.StringVar(&o.release, "release", "", "override the scenario's release (edr, dr1)")
	flag.Int64Var(&o.seed, "seed", 0, "override the scenario's seed (same seed ⇒ same run)")
	flag.StringVar(&o.arrival, "arrival", "", "override the arrival pacing (poisson, uniform)")
	flag.IntVar(&o.maxInflight, "max-inflight", synth.DefaultMaxInflight, "in-flight cap; arrivals past it are shed, never queued")
	flag.DurationVar(&o.slo, "slo", synth.DefaultSLO, "latency objective to report attainment against")
	flag.DurationVar(&o.dialTimeout, "dial-timeout", wire.DefaultDialTimeout, "per-connection dial timeout")
	flag.DurationVar(&o.drain, "drain-timeout", synth.DefaultDrainTimeout, "post-schedule wait for in-flight queries")
	flag.Float64Var(&o.timeScale, "time-scale", 1, "compress the scenario in time (2 = twice as fast)")
	flag.Float64Var(&o.rpsScale, "rps-scale", 1, "multiply every target rate")
	flag.DurationVar(&o.wait, "wait", 0, "retry the first proxy contact for up to this long (daemon startup races)")
	flag.StringVar(&o.out, "out", "", "write the JSON report to this file")
	flag.BoolVar(&o.asJSON, "json", false, "print the JSON report to stdout instead of the table")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress progress logging")
	flag.BoolVar(&o.noScrape, "no-scrape", false, "skip the proxy metrics scrape (targets that only speak MsgQuery)")
	flag.Float64Var(&o.sloFail, "slo-fail", 0, "exit nonzero when SLO attainment falls below this fraction (0 disables; e.g. 0.90)")
	flag.Parse()

	if *list {
		for _, name := range synth.CannedNames() {
			fmt.Println(name)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bysynth:", err)
		os.Exit(1)
	}
}

// loadScenario resolves the spec/slots/canned precedence and applies
// the command-line overrides.
func loadScenario(o options) (*synth.Scenario, error) {
	var sc *synth.Scenario
	switch {
	case o.specPath != "":
		data, err := os.ReadFile(o.specPath)
		if err != nil {
			return nil, err
		}
		if sc, err = synth.ParseScenario(data); err != nil {
			return nil, err
		}
	case o.slots != "":
		slots, err := synth.ParseSlots(o.slots)
		if err != nil {
			return nil, err
		}
		sc = &synth.Scenario{Name: "adhoc", Seed: 1, Slots: slots}
	default:
		var err error
		if sc, err = synth.Canned(o.scenario); err != nil {
			return nil, err
		}
	}
	if o.release != "" {
		sc.Release = o.release
	}
	if o.seed != 0 {
		sc.Seed = o.seed
	}
	if o.arrival != "" {
		sc.Arrival = o.arrival
	}
	sc.Scale(o.timeScale, o.rpsScale)
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// waitReady retries the first contact until the proxy answers or the
// -wait budget runs out, absorbing daemon-startup races in scripts and
// CI. Contact is a scrape; a -no-scrape target may speak only
// MsgQuery, so there a successful dial is ready.
func waitReady(ctx context.Context, o options) error {
	deadline := time.Now().Add(o.wait)
	for {
		c, err := wire.DialTimeout(o.addr, o.dialTimeout)
		if err == nil {
			if !o.noScrape {
				_, err = c.Scrape(wire.ScrapeMsg{})
			}
			c.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("proxy at %s not ready after %v: %w", o.addr, o.wait, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

func run(ctx context.Context, o options, stdout io.Writer) error {
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	if o.quiet {
		logf = nil
	}
	sc, err := loadScenario(o)
	if err != nil {
		return err
	}
	if o.wait > 0 {
		if err := waitReady(ctx, o); err != nil {
			return err
		}
	}
	rep, err := synth.Run(ctx, sc, synth.RunConfig{
		Addr:         o.addr,
		MaxInflight:  o.maxInflight,
		SLO:          o.slo,
		DialTimeout:  o.dialTimeout,
		DrainTimeout: o.drain,
		SkipScrape:   o.noScrape,
		Logf:         logf,
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if o.out != "" {
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
	}
	if o.asJSON {
		if _, err := stdout.Write(data); err != nil {
			return err
		}
	} else if err := rep.WriteText(stdout); err != nil {
		return err
	}
	// The SLO gate runs after the report is out: a failing run still
	// leaves the full evidence on stdout and in -out.
	if o.sloFail > 0 && rep.SLO.Attainment < o.sloFail {
		return fmt.Errorf("slo gate: attainment %.4f below -slo-fail %.4f (%d/%d met the %v objective)",
			rep.SLO.Attainment, o.sloFail, rep.SLO.Met, rep.Completed, o.slo)
	}
	return nil
}
