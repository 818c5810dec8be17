package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
)

// newTestMediator builds a mediator over the EDR release with the
// named policy, its own registry and a decision ledger.
func newTestMediator(t *testing.T, policy string, capacity int64) (*federation.Mediator, *obs.Registry) {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 20000})
	if err != nil {
		t.Fatal(err)
	}
	var pol core.Policy
	if policy != "" {
		pol, err = core.NewPolicyByName(policy, capacity, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: pol, Granularity: federation.Tables, Obs: reg,
		Ledger: ledger.New(1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	return med, reg
}

// driveQueries runs a deterministic mixed workload: single-site scans
// over both photo and spec plus the cross-site join, so all three EDR
// sites contribute accesses.
func driveQueries(t *testing.T, med *federation.Mediator, n int) {
	t.Helper()
	stmts := []string{
		"select ra, dec from photoobj where ra < 120",
		"select z, zConf from specobj where z < 0.4",
		"select p.objID, s.z from SpecObj s, PhotoObj p where p.ObjID = s.ObjID and s.z < 0.2",
		"select frameid, fieldid from frame where zoom < 5",
	}
	for i := 0; i < n; i++ {
		if _, err := med.Query(stmts[i%len(stmts)]); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// checkInvariant asserts the `by federation` reconciliation invariant on a
// uniform network: core.yield_bytes = Acct.YieldBytes = D_A.
func checkInvariant(t *testing.T, med *federation.Mediator, reg *obs.Registry) {
	t.Helper()
	acct := med.Accounting()
	counter := reg.Snapshot().CounterValue("core.yield_bytes", "")
	if counter != acct.YieldBytes {
		t.Fatalf("core.yield_bytes = %d, Acct.YieldBytes = %d", counter, acct.YieldBytes)
	}
	if acct.YieldBytes != acct.DeliveredBytes() {
		t.Fatalf("YieldBytes = %d, DeliveredBytes = %d (uniform net: must agree)", acct.YieldBytes, acct.DeliveredBytes())
	}
}

func testConfig(dir string, reg *obs.Registry) Config {
	return Config{
		Dir:              dir,
		SnapshotInterval: time.Hour, // tests snapshot explicitly
		SyncEveryRecord:  true,
		Obs:              reg,
		Logf:             func(string, ...any) {},
	}
}

func TestGracefulRestartRestoresEverything(t *testing.T) {
	dir := t.TempDir()
	capacity := catalog.EDR().TotalBytes() / 2

	med1, reg1 := newTestMediator(t, "rate-profile", capacity)
	m1, err := Open(testConfig(dir, reg1), med1)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Recovery().Warm {
		t.Fatal("first open of an empty dir must be a cold start")
	}
	driveQueries(t, med1, 40)
	want := med1.Accounting()
	wantStats := med1.Read(ledger.Query{})
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if want.Queries != 40 || want.YieldBytes == 0 {
		t.Fatalf("workload accounting implausible: %+v", want)
	}

	med2, reg2 := newTestMediator(t, "rate-profile", capacity)
	m2, err := Open(testConfig(dir, reg2), med2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rep := m2.Recovery()
	if !rep.Warm {
		t.Fatalf("expected warm start, got %s", rep)
	}
	if rep.Replayed != 0 {
		t.Fatalf("graceful shutdown should leave nothing to replay, got %d records", rep.Replayed)
	}
	if got := med2.Accounting(); got != want {
		t.Fatalf("restored accounting %+v, want %+v", got, want)
	}
	gotStats := med2.Read(ledger.Query{})
	if gotStats.Clock != 40 {
		t.Fatalf("restored clock = %d, want 40", gotStats.Clock)
	}
	if gotStats.Used != wantStats.Used || len(gotStats.Contents) != len(wantStats.Contents) {
		t.Fatalf("restored cache %+v, want %+v", gotStats, wantStats)
	}
	checkInvariant(t, med2, reg2)
	snap := reg2.Snapshot()
	if snap.GaugeValue("persist.warm_start") != 1 {
		t.Fatal("persist.warm_start gauge not 1")
	}
	if snap.GaugeValue("persist.recovery_ms") < 0 {
		t.Fatal("persist.recovery_ms missing")
	}
}

func TestCrashRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	capacity := catalog.EDR().TotalBytes() / 2

	med1, reg1 := newTestMediator(t, "rate-profile", capacity)
	if _, err := Open(testConfig(dir, reg1), med1); err != nil {
		t.Fatal(err)
	}
	driveQueries(t, med1, 30)
	want := med1.Accounting()
	// Crash: no Close, no final snapshot — everything past the Open
	// snapshot lives only in the synced WAL.

	med2, reg2 := newTestMediator(t, "rate-profile", capacity)
	m2, err := Open(testConfig(dir, reg2), med2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rep := m2.Recovery()
	if !rep.Warm || rep.Replayed == 0 {
		t.Fatalf("expected warm start with WAL replay, got %s", rep)
	}
	if rep.Diverged != 0 {
		t.Fatalf("deterministic policy diverged %d times on replay", rep.Diverged)
	}
	if got := med2.Accounting(); got != want {
		t.Fatalf("recovered accounting %+v, want %+v", got, want)
	}
	checkInvariant(t, med2, reg2)
	// The recovered cache serves the same objects without re-fetching:
	// contents must match exactly.
	s1, s2 := med1.Read(ledger.Query{}), med2.Read(ledger.Query{})
	if s1.Used != s2.Used || len(s1.Contents) != len(s2.Contents) {
		t.Fatalf("recovered cache %+v, want %+v", s2, s1)
	}
}

func TestTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	capacity := catalog.EDR().TotalBytes() / 2

	med1, reg1 := newTestMediator(t, "online-by", capacity)
	if _, err := Open(testConfig(dir, reg1), med1); err != nil {
		t.Fatal(err)
	}
	driveQueries(t, med1, 25)
	want := med1.Accounting()

	// Tear the WAL tail: a record header promising 64 payload bytes,
	// followed by only 5 — exactly what a crash mid-write leaves.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	f, err := os.OpenFile(wals[len(wals)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{64, 0, 0, 0, 0xAA, 0xBB, 0xCC, 0xDD, 1, 2, 3, 4, 5}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	med2, reg2 := newTestMediator(t, "online-by", capacity)
	m2, err := Open(testConfig(dir, reg2), med2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rep := m2.Recovery()
	if !rep.Warm || !rep.TornTail {
		t.Fatalf("expected warm start with truncated torn tail, got %s", rep)
	}
	// Every complete record precedes the tear: nothing is lost.
	if got := med2.Accounting(); got != want {
		t.Fatalf("recovered accounting %+v, want %+v", got, want)
	}
	checkInvariant(t, med2, reg2)
	if reg2.Snapshot().CounterValue("persist.wal_torn_tails", "") != 1 {
		t.Fatal("persist.wal_torn_tails not counted")
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	capacity := catalog.EDR().TotalBytes() / 2

	// Two generations: snap@20 (first Close), snap@30 (second Close).
	med1, reg1 := newTestMediator(t, "rate-profile", capacity)
	m1, err := Open(testConfig(dir, reg1), med1)
	if err != nil {
		t.Fatal(err)
	}
	driveQueries(t, med1, 20)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	med2, reg2 := newTestMediator(t, "rate-profile", capacity)
	m2, err := Open(testConfig(dir, reg2), med2)
	if err != nil {
		t.Fatal(err)
	}
	driveQueries(t, med2, 10)
	want := med2.Accounting()
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot's payload: its CRC must reject it
	// and recovery must fall back to the previous generation plus the
	// WAL records between the two boundaries.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
	if len(snaps) < 2 {
		t.Fatalf("want 2 snapshot generations, have %v", snaps)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	med3, reg3 := newTestMediator(t, "rate-profile", capacity)
	m3, err := Open(testConfig(dir, reg3), med3)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	rep := m3.Recovery()
	if !rep.Warm {
		t.Fatalf("expected warm start via fallback, got %s", rep)
	}
	if rep.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1 (%s)", rep.Fallbacks, rep)
	}
	if got := med3.Accounting(); got != want {
		t.Fatalf("fallback recovery %+v, want %+v", got, want)
	}
	checkInvariant(t, med3, reg3)
	if reg3.Snapshot().CounterValue("persist.snapshot_fallbacks", "") != 1 {
		t.Fatal("persist.snapshot_fallbacks not counted")
	}
}

func TestAllSnapshotsCorruptFallsBackCold(t *testing.T) {
	dir := t.TempDir()
	capacity := catalog.EDR().TotalBytes() / 2

	med1, reg1 := newTestMediator(t, "rate-profile", capacity)
	m1, err := Open(testConfig(dir, reg1), med1)
	if err != nil {
		t.Fatal(err)
	}
	driveQueries(t, med1, 10)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
	for _, s := range snaps {
		if err := os.WriteFile(s, []byte("not a snapshot at all"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	med2, reg2 := newTestMediator(t, "rate-profile", capacity)
	m2, err := Open(testConfig(dir, reg2), med2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Recovery().Warm {
		t.Fatal("corrupt snapshots must cold start, not adopt garbage")
	}
	// Cold but alive: the proxy still serves.
	driveQueries(t, med2, 3)
	checkInvariant(t, med2, reg2)
}

// TestPolicyChangeColdStarts: a state directory written under another
// policy is refused by the policy-name guard, and the recovery report
// says why, naming both policies. One directory is written by a
// rate-profile mediator; each other holds one snapshot of a policy no
// longer built (gdsp and lru, their blobs pinned under testdata), which
// must not reach a decoder.
func TestPolicyChangeColdStarts(t *testing.T) {
	capacity := catalog.EDR().TotalBytes() / 2
	// retired writes one snapshot carrying testdata/<name>.blob under
	// policy name.
	retired := func(name string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			blob, err := os.ReadFile(filepath.Join("testdata", name+".blob"))
			if err != nil {
				t.Fatal(err)
			}
			st := federation.State{
				Clock: 10, Schema: "edr", Granularity: federation.Tables,
				PolicyName: name, Capacity: capacity, PolicyBlob: blob,
			}
			frame := encodeSnapshotFrame(st, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Unix())
			if err := os.WriteFile(filepath.Join(dir, snapName(st.Clock)), frame, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		from, to string
		write    func(t *testing.T, dir string)
	}{
		{"rate-profile", "gds", func(t *testing.T, dir string) {
			med1, reg1 := newTestMediator(t, "rate-profile", capacity)
			m1, err := Open(testConfig(dir, reg1), med1)
			if err != nil {
				t.Fatal(err)
			}
			driveQueries(t, med1, 10)
			if err := m1.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"gdsp", "gds", retired("gdsp")},
		{"lru", "gds", retired("lru")},
	} {
		t.Run(tc.from, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir)

			med2, reg2 := newTestMediator(t, tc.to, capacity)
			m2, err := Open(testConfig(dir, reg2), med2)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			rec := m2.Recovery()
			if rec.Warm {
				t.Fatal("policy change must reject the snapshot and cold start")
			}
			why := fmt.Sprintf("snapshot for policy %q, mediator runs %q", tc.from, tc.to)
			if len(rec.Skipped) == 0 {
				t.Fatalf("no snapshot skipped; want each to say %s", why)
			}
			for _, s := range rec.Skipped {
				if !strings.Contains(s, why) {
					t.Fatalf("skipped %q; want it to say %s", s, why)
				}
			}
			driveQueries(t, med2, 3)
			checkInvariant(t, med2, reg2)
		})
	}
}

// TestRefusedPolicyBlobStartsCold: a snapshot whose policy blob the
// policy refuses (here a real GDS blob with one byte appended) is
// skipped, and the start is cold in full: the cache holds nothing of
// the refused snapshot, so what the mediator reports is what it serves
// from.
func TestRefusedPolicyBlobStartsCold(t *testing.T) {
	dir := t.TempDir()
	capacity := catalog.EDR().TotalBytes() / 2

	med1, _ := newTestMediator(t, "gds", capacity)
	driveQueries(t, med1, 20)
	st, err := med1.SnapshotState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if med1.Policy().Used() == 0 {
		t.Fatal("the driven GDS caches nothing; test is vacuous")
	}
	st.PolicyBlob = append(append([]byte(nil), st.PolicyBlob...), 0xFF)
	frame := encodeSnapshotFrame(st, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Unix())
	if err := os.WriteFile(filepath.Join(dir, snapName(st.Clock)), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	med2, reg2 := newTestMediator(t, "gds", capacity)
	m2, err := Open(testConfig(dir, reg2), med2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	if rec.Warm {
		t.Fatal("a refused policy blob must cold start")
	}
	if len(rec.Skipped) != 1 || !strings.Contains(rec.Skipped[0], "trailing bytes") {
		t.Fatalf("skipped %q; want the one snapshot, refused for its trailing bytes", rec.Skipped)
	}
	if used := med2.Policy().Used(); used != 0 {
		t.Fatalf("cold start holds %d bytes of the refused snapshot", used)
	}
	driveQueries(t, med2, 3)
	checkInvariant(t, med2, reg2)
}

func TestGCKeepsTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	capacity := catalog.EDR().TotalBytes() / 2
	med, reg := newTestMediator(t, "gds", capacity)
	m, err := Open(testConfig(dir, reg), med)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 5; i++ {
		driveQueries(t, med, 4)
		if err := m.snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
	if len(snaps) > keepSnapshots {
		t.Fatalf("gc kept %d snapshots: %v", len(snaps), snaps)
	}
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*"))
	if len(wals) > keepSnapshots+1 {
		t.Fatalf("gc kept %d wals: %v", len(wals), wals)
	}
}

func TestFaultPointTornRecordRecovers(t *testing.T) {
	dir := t.TempDir()
	capacity := catalog.EDR().TotalBytes() / 2

	med1, reg1 := newTestMediator(t, "rate-profile", capacity)
	cfg := testConfig(dir, reg1)
	faults, err := ParseFaults(FaultWALMidRecord + ":after=12")
	if err != nil {
		t.Fatal(err)
	}
	type crashed struct{ point string }
	faults.CrashFn = func(point string) { panic(crashed{point}) }
	cfg.Faults = faults
	if _, err := Open(cfg, med1); err != nil {
		t.Fatal(err)
	}

	// Drive until the armed fault point kills the 12th append
	// mid-payload; the panic stands in for the process dying with the
	// half-written record flushed to disk.
	var acked core.Accounting
	func() {
		defer func() {
			r := recover()
			if c, ok := r.(crashed); !ok || c.point != FaultWALMidRecord {
				t.Fatalf("unexpected recover value %v", r)
			}
		}()
		for i := 0; i < 100; i++ {
			acked = med1.Accounting()
			driveQueries(t, med1, 1)
		}
		t.Fatal("fault point never fired")
	}()

	med2, reg2 := newTestMediator(t, "rate-profile", capacity)
	m2, err := Open(testConfig(dir, reg2), med2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rep := m2.Recovery()
	if !rep.Warm || !rep.TornTail {
		t.Fatalf("expected warm start with torn tail, got %s", rep)
	}
	// Everything acknowledged before the crashed record survives.
	got := med2.Accounting()
	if got.YieldBytes < acked.YieldBytes || got.Queries < acked.Queries {
		t.Fatalf("recovered %+v behind acknowledged %+v", got, acked)
	}
	checkInvariant(t, med2, reg2)
}

func TestParseFaults(t *testing.T) {
	f, err := ParseFaults("wal.append.mid-record:after=3, snapshot.pre-rename:after=1")
	if err != nil || f == nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	if f2, err := ParseFaults(""); err != nil || f2 != nil {
		t.Fatalf("empty spec: %v %v", f2, err)
	}
	for _, bad := range []string{"nope:after=1", "wal.append.mid-record", "wal.append.mid-record:after=0", "wal.append.mid-record:after=x"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	var fired []string
	f3, _ := ParseFaults("wal.append.pre-sync:after=2")
	f3.CrashFn = func(p string) { fired = append(fired, p) }
	f3.Hit(FaultWALPreSync, nil)
	if len(fired) != 0 {
		t.Fatal("fired on first pass with after=2")
	}
	f3.Hit(FaultWALPreSync, nil)
	if len(fired) != 1 {
		t.Fatal("did not fire on second pass")
	}
	f3.Hit(FaultWALPreSync, nil)
	if len(fired) != 1 {
		t.Fatal("fired again after disarming")
	}
	var nilFaults *FaultPoints
	nilFaults.Hit(FaultWALPreSync, nil) // must be a no-op
}

func TestRecoveryReportString(t *testing.T) {
	r := RecoveryReport{Warm: true, SnapshotPath: "/x/snap-1.bys", SnapshotClock: 7, Replayed: 3, WALFiles: 1, TornTail: true, TornDetail: "torn record header (3 trailing bytes)"}
	s := r.String()
	for _, want := range []string{"warm start", "replayed 3", "torn tail"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
	if !strings.Contains(fmt.Sprint(RecoveryReport{}), "cold start") {
		t.Fatal("cold report")
	}
}
