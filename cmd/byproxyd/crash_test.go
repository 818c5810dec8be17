package main

// Kill-tolerant recovery tests: a real byproxyd process (this test
// binary re-exec'd into helper mode) is killed — with SIGKILL, or
// deterministically mid-WAL-write at a crash point armed through
// BYPROXYD_FAULTS — and restarted on the same -state-dir. The parent keeps the database nodes alive
// across the kill, so WAN refetches after restart are observable as
// dbnode.fetches deltas.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/wire"
)

// TestCrashHelperProcess is the re-exec entry point: under
// BYPROXYD_CRASH_HELPER=1 it runs a real proxy daemon until SIGTERM
// (or until a BYPROXYD_FAULTS crash point kills it), under the policy
// BYPROXYD_POLICY names, gds when it is empty. It is a no-op under a
// normal `go test` run.
func TestCrashHelperProcess(t *testing.T) {
	if os.Getenv("BYPROXYD_CRASH_HELPER") != "1" {
		t.Skip("helper process for the crash-recovery harness")
	}
	o := testOptions()
	// GDS loads on every miss that fits, so the cache is
	// deterministically populated early — the warm-restart zero-refetch
	// assertion then has something concrete to protect.
	o.policy = "gds"
	if p := os.Getenv("BYPROXYD_POLICY"); p != "" {
		o.policy = p
	}
	o.gran = "tables"
	o.cachePct = 0.8
	o.nodes = os.Getenv("BYPROXYD_NODES")
	o.stateDir = os.Getenv("BYPROXYD_STATE_DIR")
	o.walSync = true
	o.snapInterval = time.Hour // only boundary snapshots: Open and Close
	o.recoveryLog = os.Getenv("BYPROXYD_RECOVERY_LOG")
	o.persistFaults = os.Getenv("BYPROXYD_FAULTS")
	d, err := start(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(3)
	}
	// Publish the bound address only after recovery finished and the
	// listener is up — the parent polls for this file.
	addrFile := os.Getenv("BYPROXYD_ADDR_FILE")
	if err := os.WriteFile(addrFile+".tmp", []byte(d.bound), 0o644); err != nil {
		os.Exit(3)
	}
	if err := os.Rename(addrFile+".tmp", addrFile); err != nil {
		os.Exit(3)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	<-sig
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "helper close:", err)
		os.Exit(3)
	}
}

// crashRecoveryLog picks where helper daemons append their recovery
// reports: CRASH_RECOVERY_LOG (the `make crash` CI artifact) or a
// per-test temp file.
func crashRecoveryLog(t *testing.T) string {
	if p := os.Getenv("CRASH_RECOVERY_LOG"); p != "" {
		return p
	}
	return filepath.Join(t.TempDir(), "recovery.log")
}

// crashNodes starts one in-process database node per EDR site; they
// outlive proxy kills so their fetch counters span restarts.
type crashNodes struct {
	nodes map[string]*wire.DBNode
	addrs string
}

func startCrashNodes(t *testing.T) *crashNodes {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 100000})
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]bool{}
	for i := range s.Tables {
		sites[s.Tables[i].Site] = true
	}
	cn := &crashNodes{nodes: map[string]*wire.DBNode{}}
	var pairs []string
	for site := range sites {
		n := wire.NewDBNode(site, db)
		n.SetLogf(func(string, ...any) {})
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cn.nodes[site] = n
		pairs = append(pairs, site+"="+addr)
	}
	cn.addrs = strings.Join(pairs, ",")
	t.Cleanup(func() {
		for _, n := range cn.nodes {
			n.Close()
		}
	})
	return cn
}

// fetches sums dbnode.fetches across all sites.
func (cn *crashNodes) fetches() int64 {
	var total int64
	for _, n := range cn.nodes {
		total += n.Obs().Snapshot().CounterValue("dbnode.fetches", "")
	}
	return total
}

// proxyProc is one launched helper daemon.
type proxyProc struct {
	cmd  *exec.Cmd
	addr string
}

// launchProxy re-execs the test binary as a proxy daemon and waits for
// its bound address. faults arms the persistence writers' crash points
// (persist.ParseFaults).
func launchProxy(t *testing.T, cn *crashNodes, stateDir, recoveryLog, faults string) *proxyProc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelperProcess$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"BYPROXYD_CRASH_HELPER=1",
		"BYPROXYD_NODES="+cn.addrs,
		"BYPROXYD_STATE_DIR="+stateDir,
		"BYPROXYD_ADDR_FILE="+addrFile,
		"BYPROXYD_RECOVERY_LOG="+recoveryLog,
		"BYPROXYD_FAULTS="+faults,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return &proxyProc{cmd: cmd, addr: string(b)}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("helper proxy never published its address")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// crashStatements are the crash workload's: every query repeats over
// the same tables so the policy caches them early.
var crashStatements = []string{
	"select ra, dec from photoobj where ra < 120",
	"select z, zConf from specobj where z < 0.4",
	"select p.objID, s.z from SpecObj s, PhotoObj p where p.ObjID = s.ObjID and s.z < 0.2",
}

// crashWorkload drives the helper proxy with n queries, cycling over
// stmts. Returns the
// last acknowledged stats — with -wal-sync, everything acknowledged is
// durable. Stops early (without failing) once the proxy dies, for
// fault-injected runs.
func crashWorkload(t *testing.T, addr string, stmts []string, n int, tolerateDeath bool) (last *wire.ScrapeResultMsg, died bool) {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		if tolerateDeath {
			return nil, true
		}
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		if _, err := c.Query(stmts[i%len(stmts)]); err != nil {
			if tolerateDeath {
				return last, true
			}
			t.Fatalf("query %d: %v", i, err)
		}
		st, err := c.Scrape(wire.ScrapeMsg{})
		if err != nil {
			if tolerateDeath {
				return last, true
			}
			t.Fatalf("stats after query %d: %v", i, err)
		}
		last = st
	}
	return last, false
}

// delivered computes D_A from the flow accounting.
func delivered(st *wire.ScrapeResultMsg) int64 {
	return st.Acct.BypassBytes + st.Acct.CacheBytes
}

// assertRecovered dials the restarted proxy and checks the issue's
// acceptance bar: Σ ledger yields = D_A across the restart, the
// recovered state is at or past everything acknowledged pre-kill, the
// warm-start metrics are exported, and a query over a persisted cached
// object is a cache hit with zero WAN refetches.
func assertRecovered(t *testing.T, proc *proxyProc, cn *crashNodes, acked *wire.ScrapeResultMsg) {
	t.Helper()
	const object, query = "edr/photoobj", "select ra, dec from photoobj where ra < 120"
	c, err := wire.Dial(proc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Scrape(wire.ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Acct.YieldBytes != delivered(st) {
		t.Fatalf("yield %d != D_A %d after restart", st.Acct.YieldBytes, delivered(st))
	}
	if acked != nil {
		if st.Acct.Queries < acked.Acct.Queries || st.Acct.YieldBytes < acked.Acct.YieldBytes {
			t.Fatalf("recovered %+v behind acknowledged %+v", st.Acct, acked.Acct)
		}
	}
	if st.Snapshot.GaugeValue("persist.warm_start") != 1 {
		t.Fatal("persist.warm_start != 1 after restart with state")
	}
	if st.Snapshot.GaugeValue("persist.recovery_ms") < 0 {
		t.Fatal("persist.recovery_ms not exported")
	}
	if got := st.Snapshot.CounterValue("core.yield_bytes", ""); got != st.Acct.YieldBytes {
		t.Fatalf("core.yield_bytes %d != restored accounting %d", got, st.Acct.YieldBytes)
	}
	// The recovered cache serves hits immediately: a query over the
	// persisted object must not fetch anything over the WAN.
	cached := false
	for _, id := range st.CachedObjects {
		if id == object {
			cached = true
		}
	}
	if !cached {
		t.Fatalf("%s not in recovered cache: %v", object, st.CachedObjects)
	}
	before := cn.fetches()
	res, err := c.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Object == object && d.Decision != "hit" {
			t.Fatalf("post-restart decision for cached object = %q, want hit", d.Decision)
		}
	}
	if after := cn.fetches(); after != before {
		t.Fatalf("restart triggered %d WAN refetches for persisted cache", after-before)
	}
}

func TestKillRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns proxy subprocesses")
	}
	cn := startCrashNodes(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	recoveryLog := crashRecoveryLog(t)

	proc := launchProxy(t, cn, stateDir, recoveryLog, "")
	acked, _ := crashWorkload(t, proc.addr, crashStatements, 24, false)
	if acked == nil || acked.Acct.YieldBytes == 0 {
		t.Fatalf("workload produced no accounting: %+v", acked)
	}
	// SIGKILL: no drain, no final snapshot — recovery must come from
	// the synced WAL alone.
	if err := proc.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc.cmd.Wait()

	proc2 := launchProxy(t, cn, stateDir, recoveryLog, "")
	assertRecovered(t, proc2, cn, acked)
	b, err := os.ReadFile(recoveryLog)
	if err != nil || !strings.Contains(string(b), "warm start") {
		t.Fatalf("recovery log missing warm start (%v):\n%s", err, b)
	}
	if err := proc2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc2.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown after recovery: %v", err)
	}
}

// TestSpaceEffBYRestartsWhereItStopped: the randomized policy's warm
// restarts go on as if the daemon had never stopped. Twenty-four
// queries, SIGTERM, a warm restart, twenty-four more, SIGKILL and a
// warm restart again: the last recovery replays the journal without a
// diverged decision, and recovers exactly the accounting of a daemon
// that served all forty-eight queries in one run, whose stream of
// random draws was never cut. The queries read a sixth to a half of
// photoobj, frame and mask, and SpaceEffBY loads an object with the
// probability of an access's yield over its size, so the three are
// loaded at draws some way into the stream.
func TestSpaceEffBYRestartsWhereItStopped(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns proxy subprocesses")
	}
	t.Setenv("BYPROXYD_POLICY", "space-eff-by")
	cn := startCrashNodes(t)
	stmts := []string{
		"select * from photoobj where ra < 60",
		"select * from frame where ra < 60",
		"select * from mask where ra < 120",
	}

	once := launchProxy(t, cn, filepath.Join(t.TempDir(), "state"), crashRecoveryLog(t), "")
	uninterrupted, _ := crashWorkload(t, once.addr, stmts, 48, false)
	stopProxy(t, once)
	if uninterrupted.Acct.Loads == 0 {
		t.Fatalf("the workload loads nothing (%+v): it cannot tell one stream from another", uninterrupted.Acct)
	}

	stateDir := filepath.Join(t.TempDir(), "state")
	recoveryLog := crashRecoveryLog(t)
	proc := launchProxy(t, cn, stateDir, recoveryLog, "")
	crashWorkload(t, proc.addr, stmts, 24, false)
	stopProxy(t, proc)
	proc = launchProxy(t, cn, stateDir, recoveryLog, "")
	acked, _ := crashWorkload(t, proc.addr, stmts, 24, false)
	if err := proc.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc.cmd.Wait()

	proc = launchProxy(t, cn, stateDir, recoveryLog, "")
	b, err := os.ReadFile(recoveryLog)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if last := lines[len(lines)-1]; err != nil || !strings.Contains(last, "warm start") || !strings.Contains(last, "diverged=0") {
		t.Fatalf("the last recovery is not an undiverged warm start (%v):\n%s", err, b)
	}
	if acked.Acct != uninterrupted.Acct {
		t.Fatalf("acknowledged %+v across two restarts, %+v in one run", acked.Acct, uninterrupted.Acct)
	}
	assertRecovered(t, proc, cn, acked)
	stopProxy(t, proc)
}

// stopProxy shuts a helper daemon down gracefully.
func stopProxy(t *testing.T, proc *proxyProc) {
	t.Helper()
	if err := proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// copyFixture copies testdata/<name>'s state files into a fresh state
// directory.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	for _, pat := range []string{"snap-*", "wal-*"} {
		files, err := filepath.Glob(filepath.Join("testdata", name, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// TestParentStateAcrossUpgrade starts the daemon on state directories
// an older build wrote, under the crash helper's options and this
// file's workload with wide statements over three more tables, enough
// to make GDS evict (testdata/; testdata/regen-parent-fixtures.sh
// d2c30fe writes them again): that build hashed the cache into N
// independent slices and wrote one snapshot section per slice.
//
//   - parent-1-section: N = 1, twelve queries, SIGTERM, twelve more,
//     SIGKILL; acct.json is the last acknowledged accounting, evictions
//     included. The daemon restarts warm with exactly that accounting,
//     having replayed evictions without a diverged decision, and serves
//     the persisted cache without refetching.
//   - parent-2-sections: N = 2, twenty-four queries, SIGTERM. The
//     slices are not one cache, so both snapshots are refused, each
//     by name in the recovery log, and the daemon starts cold; Σ
//     ledger yields = D_A from zero, and the next restart is warm from
//     what the cold start wrote.
func TestParentStateAcrossUpgrade(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns proxy subprocesses")
	}
	cn := startCrashNodes(t)

	t.Run("one-section", func(t *testing.T) {
		var want core.Accounting
		b, err := os.ReadFile(filepath.Join("testdata", "parent-1-section", "acct.json"))
		if err == nil {
			err = json.Unmarshal(b, &want)
		}
		if err != nil {
			t.Fatal(err)
		}
		if want.Evictions == 0 {
			t.Fatalf("the fixture's workload never evicts (%+v): a replay without evictions cannot tell one eviction order from another", want)
		}
		recoveryLog := crashRecoveryLog(t)
		proc := launchProxy(t, cn, copyFixture(t, "parent-1-section"), recoveryLog, "")
		c, err := wire.Dial(proc.addr)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Scrape(wire.ScrapeMsg{})
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Acct != want {
			t.Fatalf("recovered %+v, the parent acknowledged %+v", st.Acct, want)
		}
		assertRecovered(t, proc, cn, st)
		if b, _ := os.ReadFile(recoveryLog); !strings.Contains(string(b), "warm start") || !strings.Contains(string(b), "diverged=0") {
			t.Fatalf("recovery log missing an undiverged warm start:\n%s", b)
		}
		stopProxy(t, proc)
	})

	t.Run("two-sections", func(t *testing.T) {
		recoveryLog := crashRecoveryLog(t)
		stateDir := copyFixture(t, "parent-2-sections")
		proc := launchProxy(t, cn, stateDir, recoveryLog, "")
		b, _ := os.ReadFile(recoveryLog)
		if !strings.Contains(string(b), "cold start (fallbacks=2)") ||
			strings.Count(string(b), "carries 2 decision-plane sections") != 2 {
			t.Fatalf("recovery log does not name the two refusals:\n%s", b)
		}
		acked, _ := crashWorkload(t, proc.addr, crashStatements, 12, false)
		if acked.Acct.Queries != 12 || acked.Acct.YieldBytes != delivered(acked) {
			t.Fatalf("cold start did not count from zero: %+v", acked.Acct)
		}
		c, err := wire.Dial(proc.addr)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Scrape(wire.ScrapeMsg{Limit: wire.MaxDecisionLimit})
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		var ledgerYield int64
		for _, r := range dec.Records {
			ledgerYield += r.Yield
		}
		if ledgerYield != delivered(acked) {
			t.Fatalf("Σ ledger yields = %d, D_A = %d", ledgerYield, delivered(acked))
		}
		stopProxy(t, proc)

		proc2 := launchProxy(t, cn, stateDir, recoveryLog, "")
		assertRecovered(t, proc2, cn, acked) // warm, from what the cold start wrote
		stopProxy(t, proc2)
	})
}

func TestFaultInjectedTornWALRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns proxy subprocesses")
	}
	cn := startCrashNodes(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	recoveryLog := crashRecoveryLog(t)

	// The 30th WAL append dies mid-payload: a deterministic torn
	// record, not a race the test hopes to win.
	proc := launchProxy(t, cn, stateDir, recoveryLog, "wal.append.mid-record:after=30")
	acked, died := crashWorkload(t, proc.addr, crashStatements, 200, true)
	if !died {
		t.Fatal("proxy survived an armed fault point")
	}
	err := proc.cmd.Wait()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 137 {
		t.Fatalf("fault crash exit = %v, want status 137", err)
	}

	proc2 := launchProxy(t, cn, stateDir, recoveryLog, "")
	assertRecovered(t, proc2, cn, acked)
	b, _ := os.ReadFile(recoveryLog)
	if !strings.Contains(string(b), "torn tail truncated") {
		t.Fatalf("recovery log missing torn-tail truncation:\n%s", b)
	}
}

func TestCorruptTailFallsBackAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns proxy subprocesses")
	}
	cn := startCrashNodes(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	recoveryLog := crashRecoveryLog(t)

	// Two graceful generations, so a fallback target exists.
	for i := 0; i < 2; i++ {
		proc := launchProxy(t, cn, stateDir, recoveryLog, "")
		if _, died := crashWorkload(t, proc.addr, crashStatements, 12, false); died {
			t.Fatal("proxy died during setup workload")
		}
		if err := proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := proc.cmd.Wait(); err != nil {
			t.Fatalf("graceful shutdown %d: %v", i, err)
		}
	}
	// Corrupt the newest snapshot and tear the newest WAL.
	snaps, err := filepath.Glob(filepath.Join(stateDir, "snap-*"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want 2 snapshot generations, have %v (%v)", snaps, err)
	}
	data, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(snaps[len(snaps)-1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	wals, _ := filepath.Glob(filepath.Join(stateDir, "wal-*"))
	if len(wals) == 0 {
		t.Fatal("no wal files")
	}
	f, err := os.OpenFile(wals[len(wals)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{64, 0, 0, 0, 1, 2, 3, 4, 9, 9})
	f.Close()

	proc := launchProxy(t, cn, stateDir, recoveryLog, "")
	assertRecovered(t, proc, cn, nil)
	b, _ := os.ReadFile(recoveryLog)
	if !strings.Contains(string(b), "fallbacks=1") {
		t.Fatalf("recovery log missing snapshot fallback:\n%s", b)
	}
}
