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

	"bypassyield/internal/catalog"
	"bypassyield/internal/daemon"
	"bypassyield/internal/engine"
	"bypassyield/internal/wire"
)

// options bundles the node's tunables (one per flag).
type options struct {
	daemon.Flags
	site string
	addr string
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
// TestFlagSurface pins the names and defaults.
func registerFlags(fs *flag.FlagSet, o *options) {
	o.Register(fs, "sub-query", "fault-injection plan for inbound connections, e.g. 'latency=50ms,reset=0.1' or 'blackhole,after=5s,for=10s' (see internal/faultnet)")
	fs.StringVar(&o.site, "site", catalog.SitePhoto, "site this node serves")
	fs.StringVar(&o.addr, "addr", ":7101", "listen address")
}

func run(o options) error {
	r, err := start(o)
	if err != nil {
		return err
	}
	return r.Run("bydbd", fmt.Sprintf("serving %s of release %s on %s (sample 1/%d)",
		o.site, o.Release, r.bound, o.Sample))
}

// running is a started node: what it opened, and its address.
type running struct {
	*daemon.Daemon
	bound string
}

// start builds and listens a database node; split from run so tests
// can exercise everything but the signal wait. A failed start closes
// what it opened.
func start(o options) (*running, error) {
	s, err := catalog.Release(o.Release)
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
	db, err := engine.Open(sub, engine.Config{SampleEvery: o.Sample, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	node := wire.NewDBNode(o.site, db)
	node.SetFlightConfig(o.FlightConfig())
	r := &running{}
	r.Daemon, err = daemon.Start(&o.Flags, func(d *daemon.Daemon) error {
		if err := daemon.OpenLog(d, o.ExemplarOut, node.Flight().SetSink); err != nil {
			return err
		}
		if err := d.StartHTTP(node.Obs()); err != nil {
			return err
		}
		plan, err := d.StartChaos()
		if err != nil {
			return err
		}
		if plan != nil {
			node.SetConnWrapper(plan.Injector(o.site).Conn)
		}
		if r.bound, err = node.Listen(o.addr); err != nil {
			return err
		}
		d.Push(node.Close)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}
