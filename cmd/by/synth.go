package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bypassyield/internal/synth"
	"bypassyield/internal/wire"
)

// synthFlags is `by synth`: it synthesizes a workload scenario and
// drives it open-loop against a live byproxyd (DESIGN.md §11), reporting
// latency quantiles, SLO attainment, achieved-vs-target throughput, and
// the proxy's byte flow by decision class over the run window. The
// scenario is -spec's (a JSON file, the full model), else -slots' (the
// compact grammar), else the canned -scenario (its help lists them).
// Per-query failures, degraded results and shedding are report data:
// the subcommand fails only when the run cannot proceed (bad spec,
// unreachable proxy after -wait), or when attainment lands below a set
// -slo-fail, which makes the harness a CI latency gate.
func synthFlags(fs *flag.FlagSet) func(env, []string) error {
	o := synthOptions{endpoint: endpointFlags(fs, "byproxyd client address")}
	fs.StringVar(&o.scenario, "scenario", "steady", "canned scenario: "+strings.Join(synth.CannedNames(), ", "))
	fs.StringVar(&o.specPath, "spec", "", "JSON scenario spec file (overrides -scenario and -slots)")
	fs.StringVar(&o.slots, "slots", "", "compact slot grammar, e.g. 'constant:100x30s,ramp:50..200x1m,sine:80~60x2m/30s' (overrides -scenario)")
	fs.StringVar(&o.release, "release", "", "override the scenario's release (edr, dr1)")
	fs.Int64Var(&o.seed, "seed", 0, "override the scenario's seed (same seed ⇒ same run)")
	fs.StringVar(&o.arrival, "arrival", "", "override the arrival pacing (poisson, uniform)")
	fs.IntVar(&o.maxInflight, "max-inflight", synth.DefaultMaxInflight, "in-flight cap; arrivals past it are shed, never queued")
	fs.DurationVar(&o.slo, "slo", synth.DefaultSLO, "latency objective to report attainment against")
	fs.DurationVar(&o.drain, "drain-timeout", synth.DefaultDrainTimeout, "post-schedule wait for in-flight queries")
	positive := func(x float64) bool { return x > 0 }
	rangedVar(fs, &o.timeScale, "time-scale", 1, "> 0", positive, "compress the scenario in time by this `factor` (2 = twice as fast)")
	rangedVar(fs, &o.rpsScale, "rps-scale", 1, "> 0", positive, "multiply every target rate by this `factor`")
	fs.DurationVar(&o.wait, "wait", 0, "retry the first proxy contact for up to this long (daemon startup races)")
	fs.StringVar(&o.out, "out", "", "write the JSON report to this file")
	fs.BoolVar(&o.asJSON, "json", false, "print the JSON report to stdout instead of the table")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress progress logging")
	fs.BoolVar(&o.noScrape, "no-scrape", false, "skip the proxy metrics scrape (targets that only speak MsgQuery)")
	fs.Float64Var(&o.sloFail, "slo-fail", 0, "fail when SLO attainment falls below this fraction (0 disables; e.g. 0.90)")

	return func(e env, _ []string) error {
		ctx, stop := signal.NotifyContext(e.ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		logf := func(format string, args ...any) { fmt.Fprintf(e.stderr, format+"\n", args...) }
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
			DialTimeout:  o.timeout,
			DrainTimeout: o.drain,
			SkipScrape:   o.noScrape,
			Logf:         logf,
		})
		if err != nil {
			return err
		}
		var data bytes.Buffer
		if err := writeJSON(&data, rep); err != nil {
			return err
		}
		if o.out != "" {
			if err := os.WriteFile(o.out, data.Bytes(), 0o644); err != nil {
				return err
			}
		}
		if o.asJSON {
			_, err = e.stdout.Write(data.Bytes())
		} else {
			err = rep.WriteText(e.stdout)
		}
		if err != nil {
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
}

// synthOptions is what `by synth`'s flags set.
type synthOptions struct {
	*endpoint
	scenario, specPath, slots, release, arrival, out string
	seed                                             int64
	maxInflight                                      int
	slo, drain, wait                                 time.Duration
	timeScale, rpsScale, sloFail                     float64
	asJSON, quiet, noScrape                          bool
}

// loadScenario resolves the spec/slots/canned precedence and applies
// the command-line overrides.
func loadScenario(o synthOptions) (*synth.Scenario, error) {
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
// CI. Contact is a scrape; a -no-scrape target may speak only MsgQuery,
// so there a successful dial is ready.
func waitReady(ctx context.Context, o synthOptions) error {
	deadline := time.Now().Add(o.wait)
	for {
		c, err := o.dial()
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
