// Command byproxyd runs the paper's mediator-collocated bypass-yield
// proxy cache: clients send SQL, the proxy mediates each query across
// the federation's database nodes, and a bypass-yield policy decides
// per object whether to serve in cache, load, or bypass.
//
// Usage:
//
//	byproxyd -release edr -addr :7100 -policy rate-profile -cache-pct 0.4 \
//	  -nodes "photo.sdss.org=localhost:7101,spec.sdss.org=localhost:7102" \
//	  -http :7180 -ledger 4096 -ledger-out decisions.jsonl \
//	  -flight-sample 1 -exemplar-out queries.jsonl -state-dir ./state -wal-sync
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/faultnet"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/persist"
	"bypassyield/internal/wire"
)

// options bundles the proxy's tunables (one per flag).
type options struct {
	release  string
	addr     string
	policy   string
	cachePct float64
	gran     string
	nodes    string
	sample   int64
	seed     int64

	rpcTimeout  time.Duration // node RPC deadline (0 disables)
	dialTimeout time.Duration // node connect timeout
	httpAddr    string        // telemetry plane listen address ("" disables)
	chaos       string        // faultnet plan applied to node dials ("" disables)
	chaosSeed   int64

	ledgerCap int64  // decision-ledger ring capacity (0 disables)
	ledgerOut string // JSONL decision log path ("" disables)

	flightThreshold time.Duration // flight-recorder slow-capture threshold
	flightCap       int           // flight-recorder exemplar ring capacity
	flightSample    int           // publish every Nth healthy query (0 disables)
	exemplarOut     string        // JSONL exemplar log path ("" disables)

	maxInflight int // concurrently pipelined client queries
	poolSize    int // per-site connection-pool bound

	stateDir      string        // crash-safe state directory ("" disables persistence)
	snapInterval  time.Duration // periodic snapshot cadence
	walSync       bool          // fsync the WAL after every record
	recoveryLog   string        // append the startup recovery report here ("" disables)
	persistFaults string        // deterministic crash points in the writers (tests only)
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "byproxyd:", err)
		os.Exit(1)
	}
}

// registerFlags declares the daemon's whole flag surface on fs;
// TestFlagSurface pins the names.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.release, "release", "edr", "data release: edr or dr1")
	fs.StringVar(&o.addr, "addr", ":7100", "listen address for clients")
	fs.StringVar(&o.policy, "policy", "rate-profile", "cache policy: "+strings.Join(core.PolicyNames(), ", "))
	fs.Float64Var(&o.cachePct, "cache-pct", 0.4, "cache size as a fraction of the database")
	fs.StringVar(&o.gran, "granularity", "columns", "object granularity: tables, columns or views")
	fs.StringVar(&o.nodes, "nodes", "", "comma-separated site=addr pairs of database nodes (empty = simulate locally)")
	fs.Int64Var(&o.sample, "sample", 1000, "materialize 1 of every N logical rows")
	fs.Int64Var(&o.seed, "seed", 1, "data synthesis seed (must match the nodes')")
	fs.DurationVar(&o.rpcTimeout, "rpc-timeout", wire.DefaultRPCTimeout, "deadline for node RPCs (0 disables)")
	fs.DurationVar(&o.dialTimeout, "dial-timeout", wire.DefaultDialTimeout, "connect timeout for node dials")
	fs.StringVar(&o.chaos, "chaos", "", "fault-injection plan for node connections, e.g. 'spec.sdss.org:blackhole,after=5s,for=10s' (see internal/faultnet)")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the chaos plan's randomness")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics, /healthz, /debug/pprof on this address")
	fs.Int64Var(&o.ledgerCap, "ledger", 4096, "decision-ledger ring capacity in records (0 disables)")
	fs.StringVar(&o.ledgerOut, "ledger-out", "", "append every decision record as JSONL to this file")
	fdef := flightrec.DefaultConfig()
	fs.DurationVar(&o.flightThreshold, "flight-threshold", fdef.Threshold, "capture a full exemplar for every query at least this slow")
	fs.IntVar(&o.flightCap, "flight-cap", fdef.Capacity, "flight-recorder exemplar ring capacity")
	fs.IntVar(&o.flightSample, "flight-sample", fdef.SampleEvery, "also capture every Nth healthy query as a 'normal' exemplar (0 disables)")
	fs.StringVar(&o.exemplarOut, "exemplar-out", "", "append every published exemplar as JSONL to this file (with -flight-sample 1: a record of every query)")
	fs.IntVar(&o.maxInflight, "max-inflight", wire.DefaultMaxInflight, "concurrently pipelined client queries (1 serializes the pipeline)")
	fs.IntVar(&o.poolSize, "pool-size", wire.DefaultPoolSize, "per-site node connection pool bound (max checked-out conns, at least 1)")
	fs.StringVar(&o.stateDir, "state-dir", "", "persist cache/policy/accounting state here and warm-restart from it (empty disables)")
	fs.DurationVar(&o.snapInterval, "snapshot-interval", persist.DefaultSnapshotInterval, "periodic state snapshot cadence")
	fs.BoolVar(&o.walSync, "wal-sync", false, "fsync the write-ahead log after every access record (durable before the result frame, one fsync per access)")
	fs.StringVar(&o.recoveryLog, "recovery-log", "", "append the startup recovery report to this file")
	fs.StringVar(&o.persistFaults, "persist-faults", "", "arm deterministic crash points in the persistence writers, e.g. 'wal.append.mid-record:after=40' (crash tests only)")
}

func run(o options) error {
	d, err := start(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "byproxyd: %s on %s\n", d.desc, d.bound)
	if d.http != nil {
		fmt.Fprintf(os.Stderr, "byproxyd: telemetry on http://%s/metrics\n", d.http.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return d.Close()
}

// daemon is a started proxy with its telemetry plane and its decision
// and exemplar logs.
type daemon struct {
	proxy     *wire.Proxy
	persist   *persist.Manager // nil when -state-dir is unset
	http      *obs.HTTPServer  // nil when -http is unset
	ledger    *ledger.JSONL    // nil when -ledger-out is unset
	exemplars *flightrec.JSONL // nil when -exemplar-out is unset
	plan      *faultnet.Plan   // nil when -chaos is unset
	bound     string
	desc      string
}

// Close shuts the listener (draining in-flight queries), flushes the
// final state snapshot, closes the HTTP plane, and — last, so
// in-flight decision records and exemplars still land — flushes and
// closes the JSONL logs.
func (d *daemon) Close() error {
	var err error
	if d.proxy != nil {
		err = d.proxy.Close()
	}
	if d.persist != nil {
		if perr := d.persist.Close(); err == nil {
			err = perr
		}
	}
	if d.plan != nil {
		d.plan.Stop()
	}
	if d.http != nil {
		if herr := d.http.Close(); err == nil {
			err = herr
		}
	}
	if lerr := d.ledger.Close(); err == nil {
		err = lerr
	}
	if eerr := d.exemplars.Close(); err == nil {
		err = eerr
	}
	return err
}

// start builds and listens the proxy; split from run so tests can
// exercise everything but the signal wait. A failed start closes what
// it opened: listeners, logs, the chaos plan and the state directory.
func start(o options) (_ *daemon, err error) {
	if o.poolSize < 1 {
		return nil, fmt.Errorf("-pool-size %d: the bound is fixed and must be at least 1 (adaptive sizing, which 0 used to select, is gone)", o.poolSize)
	}
	if o.ledgerOut != "" && o.ledgerCap <= 0 {
		return nil, fmt.Errorf("-ledger-out requires -ledger > 0")
	}
	if o.stateDir == "" {
		switch {
		case o.walSync:
			return nil, fmt.Errorf("-wal-sync requires -state-dir")
		case o.recoveryLog != "":
			return nil, fmt.Errorf("-recovery-log requires -state-dir")
		case o.persistFaults != "":
			return nil, fmt.Errorf("-persist-faults requires -state-dir")
		}
	}
	var s *catalog.Schema
	switch o.release {
	case "edr":
		s = catalog.EDR()
	case "dr1":
		s = catalog.DR1()
	default:
		return nil, fmt.Errorf("unknown release %q (have edr, dr1)", o.release)
	}
	g, err := federation.ParseGranularity(o.gran)
	if err != nil {
		return nil, err
	}
	capacity := int64(o.cachePct * float64(s.TotalBytes()))
	pol, err := core.NewPolicyByName(o.policy, capacity, o.seed)
	if err != nil {
		return nil, err
	}
	db, err := engine.Open(s, engine.Config{SampleEvery: o.sample, Seed: o.seed})
	if err != nil {
		return nil, err
	}

	d := &daemon{}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	// One registry spans the whole daemon: the mediator/policy record
	// into it, the local engine shares it, and the proxy adopts it, so
	// a single MsgScrape snapshot (and the /metrics exposition) covers
	// every layer.
	reg := obs.NewRegistry()
	db.SetObs(reg)
	var led *ledger.Ledger
	if o.ledgerCap > 0 {
		led = ledger.New(int(o.ledgerCap))
		if o.ledgerOut != "" {
			f, err := os.OpenFile(o.ledgerOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			d.ledger = ledger.NewJSONL(f)
			led.SetSink(d.ledger)
		}
	}
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: pol, Granularity: g, Obs: reg,
		Ledger: led, Shadows: true,
	})
	if err != nil {
		return nil, err
	}

	nodeAddrs := map[string]string{}
	if o.nodes != "" {
		for _, pair := range strings.Split(o.nodes, ",") {
			site, naddr, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return nil, fmt.Errorf("bad -nodes entry %q (want site=addr)", pair)
			}
			nodeAddrs[site] = naddr
		}
	}

	proxy := wire.NewProxy(med, g, nodeAddrs)
	proxy.SetRPCTimeout(o.rpcTimeout)
	proxy.SetDialTimeout(o.dialTimeout)
	proxy.SetConcurrency(o.maxInflight, 0)
	proxy.SetPoolConfig(wire.PoolConfig{MaxActive: o.poolSize})
	proxy.SetFlightConfig(flightrec.Config{
		Capacity: o.flightCap, Threshold: o.flightThreshold, SampleEvery: o.flightSample,
	})
	d.proxy = proxy
	if o.exemplarOut != "" {
		f, err := os.OpenFile(o.exemplarOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		d.exemplars = flightrec.NewJSONL(f)
		proxy.SetExemplarSink(d.exemplars)
	}
	if o.chaos != "" {
		plan, err := faultnet.ParsePlan(o.chaos, o.chaosSeed)
		if err != nil {
			return nil, err
		}
		plan.Start()
		d.plan = plan
		proxy.SetDialer(func(site, addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, o.dialTimeout)
			if err != nil {
				return nil, err
			}
			return plan.Injector(site).Conn(c), nil
		})
	}
	if o.httpAddr != "" {
		if d.http, err = obs.StartHTTP(o.httpAddr, obs.NewHTTPHandler(reg.Snapshot)); err != nil {
			return nil, err
		}
	}
	// Recover and attach persistent state before the listener opens:
	// the first client query must already see the warm cache and the
	// journal must capture every access.
	if o.stateDir != "" {
		faults, err := persist.ParseFaults(o.persistFaults)
		if err != nil {
			return nil, err
		}
		d.persist, err = persist.Open(persist.Config{
			Dir:              o.stateDir,
			SnapshotInterval: o.snapInterval,
			SyncEveryRecord:  o.walSync,
			Obs:              reg,
			Faults:           faults,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "byproxyd: "+format+"\n", args...)
			},
		}, med)
		if err != nil {
			return nil, err
		}
		if o.recoveryLog != "" {
			if err := appendRecoveryLog(o.recoveryLog, d.persist.Recovery()); err != nil {
				return nil, err
			}
		}
	}
	if d.bound, err = proxy.Listen(o.addr); err != nil {
		return nil, err
	}
	d.desc = fmt.Sprintf("release %s, policy %s, cache %.0f%% (%d MB), granularity %s, %d nodes",
		s.Name, o.policy, o.cachePct*100, capacity>>20, g, len(nodeAddrs))
	return d, nil
}

// appendRecoveryLog appends one recovery report line so operators (and
// the CI crash job) keep a history of what each restart restored.
func appendRecoveryLog(path string, rep persist.RecoveryReport) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := fmt.Fprintf(f, "%s recovery: %s\n", time.Now().UTC().Format(time.RFC3339), rep)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
