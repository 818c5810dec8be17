// Package daemon is what byproxyd and bydbd share: the flags both take,
// the JSONL logs, the chaos plan and the HTTP plane a start opens for
// them, the signal wait, and one stack of closers that a failed start,
// or Close, runs in reverse, once.
package daemon

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"bypassyield/internal/faultnet"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
)

// Flags are the options both daemons take, one field per flag.
type Flags struct {
	Release   string
	Sample    int64
	Seed      int64
	HTTPAddr  string // telemetry plane listen address ("" disables)
	Chaos     string // faultnet plan ("" disables)
	ChaosSeed int64

	FlightThreshold time.Duration // flight-recorder slow-capture threshold
	FlightSample    int           // publish every Nth healthy one (0 disables)
	ExemplarOut     string        // JSONL exemplar log path ("" disables)
}

// Register declares the shared flags on fs. unit names what one flight
// record describes ("query" or "sub-query"); chaos is the -chaos usage,
// which quotes the role's example plans.
func (f *Flags) Register(fs *flag.FlagSet, unit, chaos string) {
	fs.StringVar(&f.Release, "release", "edr", "data release: edr or dr1")
	fs.Int64Var(&f.Sample, "sample", 1000, "materialize 1 of every N logical rows")
	fs.Int64Var(&f.Seed, "seed", 1, "data synthesis seed (the proxy's and every node's must match)")
	fs.StringVar(&f.HTTPAddr, "http", "", "serve /metrics, /healthz, /debug/pprof on this address")
	fs.StringVar(&f.Chaos, "chaos", "", chaos)
	fs.Int64Var(&f.ChaosSeed, "chaos-seed", 1, "seed for the chaos plan's randomness")
	fdef := flightrec.DefaultConfig()
	fs.DurationVar(&f.FlightThreshold, "flight-threshold", fdef.Threshold, "capture a full exemplar for every "+unit+" at least this slow")
	fs.IntVar(&f.FlightSample, "flight-sample", fdef.SampleEvery, "also capture every Nth healthy "+unit+" as a 'normal' exemplar (0 disables)")
	fs.StringVar(&f.ExemplarOut, "exemplar-out", "", "append every published exemplar as JSONL to this file (with -flight-sample 1: a record of every "+unit+")")
}

// FlightConfig is the flight-recorder tuning the flags set, at the
// default ring capacity.
func (f *Flags) FlightConfig() flightrec.Config {
	return flightrec.Config{Threshold: f.FlightThreshold, SampleEvery: f.FlightSample}
}

// Daemon is a started daemon: the closers of everything its start
// opened, and the HTTP plane.
type Daemon struct {
	HTTP *obs.HTTPServer // nil when -http is unset

	flags   *Flags
	closers []func() error
	once    sync.Once
	err     error
}

// Start runs open on a new Daemon under flags. open pushes a closer for
// everything it opens; when it fails, Start runs them before returning
// the error.
func Start(flags *Flags, open func(d *Daemon) error) (*Daemon, error) {
	d := &Daemon{flags: flags}
	if err := open(d); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// Push adds a closer to the stack: Close runs the last pushed first.
func (d *Daemon) Push(c func() error) { d.closers = append(d.closers, c) }

// Close runs the closers in reverse order, once, and returns the first
// error; later calls return the same error.
func (d *Daemon) Close() error {
	d.once.Do(func() {
		for i := len(d.closers) - 1; i >= 0; i-- {
			if err := d.closers[i](); d.err == nil {
				d.err = err
			}
		}
	})
	return d.err
}

// OpenLog opens path, when set, as a JSONL log appended to, hands its
// Append to setSink (a recorder's or a ledger's SetSink), and pushes its
// Close: -exemplar-out and byproxyd's -ledger-out.
func OpenLog[T any](d *Daemon, path string, setSink func(func(T))) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j := obs.NewJSONL[T](f)
	setSink(j.Append)
	d.Push(j.Close)
	return nil
}

// StartHTTP serves reg's /metrics, /healthz and /debug/pprof on -http,
// when set.
func (d *Daemon) StartHTTP(reg *obs.Registry) error {
	if d.flags.HTTPAddr == "" {
		return nil
	}
	srv, err := obs.StartHTTP(d.flags.HTTPAddr, obs.NewHTTPHandler(reg.Snapshot))
	if err != nil {
		return err
	}
	d.HTTP = srv
	d.Push(srv.Close)
	return nil
}

// StartChaos parses and starts the -chaos plan; nil when it is unset.
func (d *Daemon) StartChaos() (*faultnet.Plan, error) {
	if d.flags.Chaos == "" {
		return nil, nil
	}
	plan, err := faultnet.ParsePlan(d.flags.Chaos, d.flags.ChaosSeed)
	if err != nil {
		return nil, err
	}
	plan.Start()
	d.Push(func() error { plan.Stop(); return nil })
	return plan, nil
}

// Run reports the daemon serving, waits for SIGINT or SIGTERM, and
// closes it. name prefixes the lines it writes to standard error.
func (d *Daemon) Run(name, serving string) error {
	fmt.Fprintf(os.Stderr, "%s: %s\n", name, serving)
	if d.HTTP != nil {
		fmt.Fprintf(os.Stderr, "%s: telemetry on http://%s/metrics\n", name, d.HTTP.Addr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return d.Close()
}
