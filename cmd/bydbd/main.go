// Command bydbd runs a federation member database node: it owns the
// tables of one site of a data release and answers sub-queries and
// object fetches from the proxy over TCP.
//
// Usage:
//
//	bydbd -release edr -site photo.sdss.org -addr :7101 \
//	  -http :7181 -flight-sample 1 -exemplar-out node-queries.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/faultnet"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/wire"
)

// options bundles the node's tunables (one per flag).
type options struct {
	release   string
	site      string
	addr      string
	sample    int64
	seed      int64
	httpAddr  string // telemetry plane listen address ("" disables)
	chaos     string // faultnet plan applied to inbound conns ("" disables)
	chaosSeed int64

	flightThreshold time.Duration // flight-recorder slow-capture threshold
	flightCap       int           // flight-recorder exemplar ring capacity
	flightSample    int           // publish every Nth healthy sub-query (0 disables)
	exemplarOut     string        // JSONL exemplar log path ("" disables)
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bydbd:", err)
		os.Exit(1)
	}
}

// registerFlags declares the daemon's whole flag surface on fs;
// TestFlagSurface pins the names.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.release, "release", "edr", "data release: edr or dr1")
	fs.StringVar(&o.site, "site", catalog.SitePhoto, "site this node serves")
	fs.StringVar(&o.addr, "addr", ":7101", "listen address")
	fs.Int64Var(&o.sample, "sample", 1000, "materialize 1 of every N logical rows")
	fs.Int64Var(&o.seed, "seed", 1, "data synthesis seed (must match the proxy's)")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics, /healthz, /debug/pprof on this address")
	fs.StringVar(&o.chaos, "chaos", "", "fault-injection plan for inbound connections, e.g. 'latency=50ms,reset=0.1' or 'blackhole after=5s for=10s' (see internal/faultnet)")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the chaos plan's randomness")
	fdef := flightrec.DefaultConfig()
	fs.DurationVar(&o.flightThreshold, "flight-threshold", fdef.Threshold, "capture a full exemplar for every sub-query at least this slow")
	fs.IntVar(&o.flightCap, "flight-cap", fdef.Capacity, "flight-recorder exemplar ring capacity")
	fs.IntVar(&o.flightSample, "flight-sample", fdef.SampleEvery, "also capture every Nth healthy sub-query as a 'normal' exemplar (0 disables)")
	fs.StringVar(&o.exemplarOut, "exemplar-out", "", "append every published exemplar as JSONL to this file (with -flight-sample 1: a record of every sub-query)")
}

func run(o options) error {
	d, err := start(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bydbd: serving %s of release %s on %s (sample 1/%d)\n",
		o.site, o.release, d.bound, o.sample)
	if d.http != nil {
		fmt.Fprintf(os.Stderr, "bydbd: telemetry on http://%s/metrics\n", d.http.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return d.Close()
}

// daemon is a started node with its telemetry plane and exemplar log.
type daemon struct {
	node      *wire.DBNode
	http      *obs.HTTPServer  // nil when -http is unset
	exemplars *flightrec.JSONL // nil when -exemplar-out is unset
	plan      *faultnet.Plan   // nil when -chaos is unset
	bound     string
}

// Close shuts the listener, the HTTP plane, and — last, so in-flight
// exemplars still land — flushes and closes the exemplar log.
func (d *daemon) Close() error {
	err := d.node.Close()
	if d.plan != nil {
		d.plan.Stop()
	}
	if d.http != nil {
		if herr := d.http.Close(); err == nil {
			err = herr
		}
	}
	if eerr := d.exemplars.Close(); err == nil {
		err = eerr
	}
	return err
}

// start builds and listens a database node; split from run so tests
// can exercise everything but the signal wait.
func start(o options) (*daemon, error) {
	s, err := schemaFor(o.release)
	if err != nil {
		return nil, err
	}
	// Materialize only this site's tables; synthesis is seeded per
	// column, so the subset matches the proxy's full instance exactly.
	sub := catalog.SiteSchema(s, o.site)
	if len(sub.Tables) == 0 {
		return nil, fmt.Errorf("site %q owns no tables of release %s (have %v)",
			o.site, s.Name, catalog.Sites(s))
	}
	db, err := engine.Open(sub, engine.Config{SampleEvery: o.sample, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	node := wire.NewDBNode(o.site, db)
	node.SetFlightConfig(flightrec.Config{
		Capacity: o.flightCap, Threshold: o.flightThreshold, SampleEvery: o.flightSample,
	})
	d := &daemon{node: node}
	if o.exemplarOut != "" {
		f, err := os.OpenFile(o.exemplarOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		d.exemplars = flightrec.NewJSONL(f)
		node.Flight().SetSink(d.exemplars)
	}
	if o.chaos != "" {
		plan, err := faultnet.ParsePlan(o.chaos, o.chaosSeed)
		if err != nil {
			return nil, err
		}
		plan.Start()
		inj := plan.Injector(o.site)
		node.SetConnWrapper(inj.Conn)
		d.plan = plan
	}
	if o.httpAddr != "" {
		srv, err := obs.StartHTTP(o.httpAddr, obs.NewHTTPHandler(node.Obs().Snapshot))
		if err != nil {
			d.exemplars.Close()
			return nil, err
		}
		d.http = srv
	}
	bound, err := node.Listen(o.addr)
	if err != nil {
		if d.http != nil {
			d.http.Close()
		}
		d.exemplars.Close()
		return nil, err
	}
	d.bound = bound
	return d, nil
}

func schemaFor(release string) (*catalog.Schema, error) {
	switch release {
	case "edr":
		return catalog.EDR(), nil
	case "dr1":
		return catalog.DR1(), nil
	default:
		return nil, fmt.Errorf("unknown release %q (have edr, dr1)", release)
	}
}
