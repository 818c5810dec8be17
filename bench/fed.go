package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/persist"
	"bypassyield/internal/wire"
)

// The federation is configured like byproxyd's and bydbd's flag
// defaults, so the benchmark measures what the daemons run.
const (
	policyName = "rate-profile"
	ledgerCap  = 4096
	dataSeed   = 1
	dataSample = 1000
	loopback   = "127.0.0.1:0"
)

func quiet(string, ...any) {}

// fedConfig is what varies between workloads.
type fedConfig struct {
	gran     federation.Granularity
	cachePct float64
	shards   int // 0 = GOMAXPROCS rounded up, byproxyd's default
	// durable opens persist on a state directory of the federation's own,
	// made under scratch and removed by Close, with the production flush
	// policy: no per-record fsync, 30 s snapshot interval.
	durable bool
	scratch string
	// wire listens one DBNode per site and the Proxy; without it only
	// the mediator exists.
	wire bool
}

// fed is one in-process federation: engine, mediator and, over
// loopback TCP with no injected latency, one DBNode per site and the
// Proxy.
type fed struct {
	cfg     fedConfig
	schema  *catalog.Schema
	db      *engine.DB
	reg     *obs.Registry
	med     *federation.Mediator
	persist *persist.Manager
	// stateDir is persist's directory ("" unless durable).
	stateDir string
	nodes    []*wire.DBNode
	addrs    map[string]string // site → node address
	proxy    *wire.Proxy
	addr     string // proxy address
}

// newMediator builds a mediator over db the way byproxyd does; bare
// switches ledger, shadows and registry off (the obs-overhead twin).
func newMediator(s *catalog.Schema, db *engine.DB, cfg fedConfig, reg *obs.Registry, bare bool) (*federation.Mediator, error) {
	mc := federation.Config{
		Schema: s, Engine: db, Granularity: cfg.gran,
		NewPolicy: func(shard int, shardCap int64) (core.Policy, error) {
			return core.NewPolicyByName(policyName, shardCap, dataSeed+int64(shard))
		},
		Capacity: int64(cfg.cachePct * float64(s.TotalBytes())),
		Shards:   cfg.shards,
	}
	if !bare {
		mc.Obs = reg
		mc.Ledger = ledger.New(ledgerCap)
		mc.Shadows = true
	}
	return federation.New(mc)
}

func openPersist(dir string, med *federation.Mediator, reg *obs.Registry, syncEvery bool) (*persist.Manager, error) {
	return persist.Open(persist.Config{
		Dir:              dir,
		SnapshotInterval: persist.DefaultSnapshotInterval,
		SyncEveryRecord:  syncEvery,
		Obs:              reg,
	}, med)
}

// startFed opens the engine and brings the federation up. On error
// everything already started is closed.
func startFed(cfg fedConfig) (f *fed, err error) {
	f = &fed{cfg: cfg, schema: catalog.EDR(), reg: obs.NewRegistry(), addrs: map[string]string{}}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	f.db, err = engine.Open(f.schema, engine.Config{SampleEvery: dataSample, Seed: dataSeed})
	if err != nil {
		return f, err
	}
	if cfg.wire {
		for _, site := range catalog.Sites(f.schema) {
			n := wire.NewDBNode(site, f.db)
			n.SetLogf(quiet)
			n.SetFlightConfig(flightrec.DefaultConfig())
			addr, err := n.Listen(loopback)
			if err != nil {
				return f, err
			}
			f.nodes = append(f.nodes, n)
			f.addrs[site] = addr
		}
	}
	// The engine publishes into whichever registry attached last; the
	// proxy's, as in byproxyd, so rows scanned are read in one place.
	f.db.SetObs(f.reg)
	f.med, err = newMediator(f.schema, f.db, cfg, f.reg, false)
	if err != nil {
		return f, err
	}
	if cfg.durable {
		if f.stateDir, err = os.MkdirTemp(cfg.scratch, "state-"); err != nil {
			return f, err
		}
		if f.persist, err = openPersist(f.stateDir, f.med, f.reg, false); err != nil {
			return f, err
		}
	}
	if cfg.wire {
		p := wire.NewProxy(f.med, cfg.gran, f.addrs)
		p.SetLogf(quiet)
		bcfg := wire.DefaultBreakerConfig()
		bcfg.Seed = dataSeed
		p.SetBreakerConfig(bcfg)
		p.SetConcurrency(wire.DefaultMaxInflight, 0)
		p.SetPoolConfig(wire.PoolConfig{MaxActive: wire.DefaultPoolSize})
		p.SetFlightConfig(flightrec.DefaultConfig())
		f.proxy = p
		f.addr, err = p.Listen(loopback)
		if err != nil {
			return f, err
		}
	}
	return f, nil
}

// Close shuts the proxy, the state manager and the nodes, in the
// daemons' order, removes the state directory, and checks that no
// listener still answers. Clients must be closed first: Proxy.Close
// waits for their connections.
func (f *fed) Close() error {
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if f.proxy != nil {
		keep(f.proxy.Close())
	}
	if f.persist != nil {
		keep(f.persist.Close())
	}
	for _, n := range f.nodes {
		keep(n.Close())
	}
	if f.stateDir != "" {
		keep(os.RemoveAll(f.stateDir))
	}
	addrs := []string{f.addr}
	for _, a := range f.addrs {
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if a == "" {
			continue
		}
		if c, derr := net.DialTimeout("tcp", a, time.Second); derr == nil {
			c.Close()
			keep(fmt.Errorf("listener %s still accepts after Close", a))
		}
	}
	f.proxy, f.persist, f.nodes, f.addr, f.addrs, f.stateDir = nil, nil, nil, "", nil, ""
	return err
}

// dial opens n client connections to the proxy.
func (f *fed) dial(n int) ([]*wire.Client, error) {
	cs := make([]*wire.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := wire.Dial(f.addr)
		if err != nil {
			closeClients(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeClients(cs []*wire.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// recoverCopy copies a live state directory — the crash image: last
// snapshot plus the write-ahead log so far — into a new directory under
// cfg.scratch and recovers a fresh mediator from it. It returns the
// wall time of persist.Open, the records replayed, and in failed what
// the recovery got wrong: "" when the recovered accounting equals want,
// warm, with no diverged decision.
func recoverCopy(live string, cfg fedConfig, want core.Accounting) (took time.Duration, replayed int, failed string, err error) {
	img, err := os.MkdirTemp(cfg.scratch, "crash-")
	if err != nil {
		return 0, 0, "", err
	}
	defer os.RemoveAll(img)
	if err := copyDir(live, img); err != nil {
		return 0, 0, "", err
	}
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{SampleEvery: dataSample, Seed: dataSeed})
	if err != nil {
		return 0, 0, "", err
	}
	reg := obs.NewRegistry()
	med, err := newMediator(s, db, cfg, reg, false)
	if err != nil {
		return 0, 0, "", err
	}
	start := time.Now()
	mgr, err := openPersist(img, med, reg, false)
	took = time.Since(start)
	if err != nil {
		return 0, 0, "", err
	}
	rep := mgr.Recovery()
	if rep.Acct != want || rep.Diverged != 0 || !rep.Warm {
		failed = fmt.Sprintf("recovery differs from live state: %s; live D_A=%d queries=%d", rep, want.DeliveredBytes(), want.Queries)
	}
	return took, rep.Replayed, failed, mgr.Close()
}

func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
