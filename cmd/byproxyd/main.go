// Command byproxyd runs the paper's mediator-collocated bypass-yield
// proxy cache: clients send SQL, the proxy mediates each query across
// the federation's database nodes, and a bypass-yield policy decides
// per object whether to serve in cache, load, or bypass.
//
// Usage:
//
//	byproxyd -release edr -addr :7100 -policy rate-profile -cache-pct 0.4 \
//	  -nodes "photo.sdss.org=localhost:7101,spec.sdss.org=localhost:7102" \
//	  -http :7180 -ledger-out decisions.jsonl \
//	  -flight-sample 1 -exemplar-out queries.jsonl -state-dir ./state -wal-sync
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/daemon"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/persist"
	"bypassyield/internal/wire"
)

// ledgerCap is the decision ledger's ring capacity in records: the
// ledger is always on, at the size the benchmark runs.
const ledgerCap = 4096

// options bundles the proxy's tunables (one per flag).
type options struct {
	daemon.Flags
	addr     string
	policy   string
	cachePct float64
	gran     string
	nodes    string

	rpcTimeout time.Duration // node RPC deadline (0 disables)

	ledgerOut string // JSONL decision log path ("" disables)

	maxInflight int // concurrently pipelined client queries

	stateDir      string        // crash-safe state directory ("" disables persistence)
	snapInterval  time.Duration // periodic snapshot cadence
	walSync       bool          // fsync the WAL after every record
	recoveryLog   string        // append the startup recovery report here ("" disables)
	persistFaults string        // deterministic crash points in the writers (the crash tests set it; no flag)
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
// TestFlagSurface pins the names and defaults.
func registerFlags(fs *flag.FlagSet, o *options) {
	o.Register(fs, "query", "fault-injection plan for node connections, e.g. 'spec.sdss.org:blackhole,after=5s,for=10s' (see internal/faultnet)")
	fs.StringVar(&o.addr, "addr", ":7100", "listen address for clients")
	fs.StringVar(&o.policy, "policy", "rate-profile", "cache policy: "+strings.Join(core.PolicyNames(), ", "))
	fs.Float64Var(&o.cachePct, "cache-pct", 0.4, "cache size as a fraction of the database")
	fs.StringVar(&o.gran, "granularity", "columns", "object granularity: tables, columns or views")
	fs.StringVar(&o.nodes, "nodes", "", "comma-separated site=addr pairs of database nodes (empty = simulate locally)")
	fs.DurationVar(&o.rpcTimeout, "rpc-timeout", wire.DefaultRPCTimeout, "deadline for node RPCs (0 disables)")
	fs.StringVar(&o.ledgerOut, "ledger-out", "", "append every decision record as JSONL to this file")
	fs.IntVar(&o.maxInflight, "max-inflight", wire.DefaultMaxInflight, "concurrently pipelined client queries (1 serializes the pipeline)")
	fs.StringVar(&o.stateDir, "state-dir", "", "persist cache/policy/accounting state here and warm-restart from it (empty disables)")
	fs.DurationVar(&o.snapInterval, "snapshot-interval", persist.DefaultSnapshotInterval, "periodic state snapshot cadence")
	fs.BoolVar(&o.walSync, "wal-sync", false, "fsync the write-ahead log after every access record (durable before the result frame, one fsync per access)")
	fs.StringVar(&o.recoveryLog, "recovery-log", "", "append the startup recovery report to this file")
}

func run(o options) error {
	r, err := start(o)
	if err != nil {
		return err
	}
	return r.Run("byproxyd", r.desc+" on "+r.bound)
}

// running is a started proxy: what it opened, its address and its
// description.
type running struct {
	*daemon.Daemon
	bound string
	desc  string
}

// start builds and listens the proxy; split from run so tests can
// exercise everything but the signal wait. A failed start closes what
// it opened. What it opens is closed in the reverse order: the
// listener (draining in-flight queries), the state directory with its
// final snapshot, the chaos plan, the HTTP plane, and — last, so
// in-flight decision records and exemplars still land — the JSONL
// logs.
func start(o options) (*running, error) {
	if o.stateDir == "" {
		switch {
		case o.walSync:
			return nil, fmt.Errorf("-wal-sync requires -state-dir")
		case o.recoveryLog != "":
			return nil, fmt.Errorf("-recovery-log requires -state-dir")
		case o.persistFaults != "":
			return nil, fmt.Errorf("persistence faults require -state-dir")
		}
	}
	s, err := catalog.Release(o.Release)
	if err != nil {
		return nil, err
	}
	g, err := federation.ParseGranularity(o.gran)
	if err != nil {
		return nil, err
	}
	capacity := int64(o.cachePct * float64(s.TotalBytes()))
	pol, err := core.NewPolicyByName(o.policy, capacity, o.Seed)
	if err != nil {
		return nil, err
	}
	db, err := engine.Open(s, engine.Config{SampleEvery: o.Sample, Seed: o.Seed})
	if err != nil {
		return nil, err
	}

	// One registry spans the whole daemon: the mediator/policy record
	// into it, the local engine shares it, and the proxy adopts it, so
	// a single MsgScrape snapshot (and the /metrics exposition) covers
	// every layer.
	reg := obs.NewRegistry()
	db.SetObs(reg)
	led := ledger.New(ledgerCap)
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: pol, Granularity: g, Obs: reg, Ledger: led,
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
	proxy.SetConcurrency(o.maxInflight, 0)
	proxy.SetFlightConfig(o.FlightConfig())
	r := &running{desc: fmt.Sprintf("release %s, policy %s, cache %.0f%% (%d MB), granularity %s, %d nodes",
		s.Name, o.policy, o.cachePct*100, capacity>>20, g, len(nodeAddrs))}
	r.Daemon, err = daemon.Start(&o.Flags, func(d *daemon.Daemon) error {
		if err := daemon.OpenLog(d, o.ExemplarOut, proxy.Flight().SetSink); err != nil {
			return err
		}
		if err := daemon.OpenLog(d, o.ledgerOut, led.SetSink); err != nil {
			return err
		}
		if err := d.StartHTTP(reg); err != nil {
			return err
		}
		plan, err := d.StartChaos()
		if err != nil {
			return err
		}
		if plan != nil {
			proxy.SetDialer(func(site, addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, wire.DefaultDialTimeout)
				if err != nil {
					return nil, err
				}
				return plan.Injector(site).Conn(c), nil
			})
		}
		// Recover and attach persistent state before the listener
		// opens: the first client query must already see the warm cache
		// and the journal must capture every access.
		if o.stateDir != "" {
			faults, err := persist.ParseFaults(o.persistFaults)
			if err != nil {
				return err
			}
			mgr, err := persist.Open(persist.Config{
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
				return err
			}
			d.Push(mgr.Close)
			if o.recoveryLog != "" {
				if err := appendRecoveryLog(o.recoveryLog, mgr.Recovery()); err != nil {
					return err
				}
			}
		}
		if r.bound, err = proxy.Listen(o.addr); err != nil {
			return err
		}
		d.Push(proxy.Close)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
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
