package persist

// Snapshot format compatibility. State directories outlive builds, so
// three things must keep holding:
//
//   - a version-1 snapshot (no section list) restores;
//   - a version-2 snapshot with one section restores and its WAL
//     replays exactly, also when written by a build that claimed the
//     query sequence T outside the decision lock, so that T is neither
//     the header's clock nor in decision order and only ShardT is;
//   - a version-2 snapshot with several sections — a cache that was
//     split into independent slices — is refused by name, and the
//     proxy starts cold and stays consistent.
//
// These run in `make crash` alongside the kill-recovery suite.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/federation"
)

// encodeV1Snapshot serializes a State exactly as version-1 builds
// did: one implicit section, the policy blob trailing the header.
func encodeV1Snapshot(st federation.State, createdUnix int64) []byte {
	var e enc
	e.u8(1)
	e.i64(createdUnix)
	e.i64(st.Clock)
	e.str(st.Schema)
	e.u8(uint8(st.Granularity))
	e.str(st.PolicyName)
	e.i64(st.Capacity)
	e.acct(st.Acct)
	e.bytes(st.Sections[0].PolicyBlob)
	payload := e.b
	out := make([]byte, 0, len(snapMagic)+8+len(payload))
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// checkRestored asserts med holds exactly the accounting, clock and
// cache med1 had, and keeps accounting correctly for new traffic.
func checkRestored(t *testing.T, m *Manager, med1 *federation.Mediator) {
	t.Helper()
	med, reg := m.med, m.cfg.Obs
	if got, want := med.Accounting(), med1.Accounting(); got != want {
		t.Fatalf("restored accounting %+v, want %+v", got, want)
	}
	if med.Clock() != med1.Clock() {
		t.Fatalf("restored clock = %d, want %d", med.Clock(), med1.Clock())
	}
	gotStats, _ := med.PolicyStats()
	wantStats, _ := med1.PolicyStats()
	if gotStats.Used != wantStats.Used || len(gotStats.Contents) != len(wantStats.Contents) {
		t.Fatalf("restored cache %+v, want %+v", gotStats, wantStats)
	}
	checkInvariant(t, med, reg)
	driveQueries(t, med, 8)
	checkInvariant(t, med, reg)
}

// TestV1SnapshotRestores writes a hand-framed version-1 snapshot and
// opens a mediator over it: accounting, clock and cache contents are
// restored.
func TestV1SnapshotRestores(t *testing.T) {
	capacity := catalog.EDR().TotalBytes() / 2
	med1, _ := newTestMediator(t, "rate-profile", capacity)
	driveQueries(t, med1, 40)
	st, err := med1.SnapshotState(nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	frame := encodeV1Snapshot(st, time.Now().Unix())
	if err := os.WriteFile(filepath.Join(dir, snapName(st.Clock)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	// Sanity: the hand-built frame is a version-1 frame, and decodes
	// into one section before the mediator ever sees it.
	if v := frame[len(snapMagic)+8]; v != 1 {
		t.Fatalf("hand-built frame has version %d", v)
	}
	dec, _, err := decodeSnapshotFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Sections) != 1 || len(dec.Sections[0].PolicyBlob) == 0 || dec.Sections[0].Acct != st.Acct {
		t.Fatalf("v1 decode: %+v, want one section with the header's accounting and the blob", dec.Sections)
	}

	med2, reg2 := newTestMediator(t, "rate-profile", capacity)
	m2, err := Open(testConfig(dir, reg2), med2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rep := m2.Recovery(); !rep.Warm || rep.Fallbacks != 0 {
		t.Fatalf("v1 snapshot should warm-start, got %s", rep)
	}
	checkRestored(t, m2, med1)
}

// recordKeeper is a Journal that keeps what it is given.
type recordKeeper struct{ recs []federation.JournalRecord }

func (k *recordKeeper) JournalAccess(rec federation.JournalRecord) { k.recs = append(k.recs, rec) }

// TestOneSectionV2Restores restores the state directory of a crashed
// one-section build that claimed T outside the lock: two queries had
// their T when the snapshot was cut, so the header's clock is two
// ahead of the section's, and they then decided in the other order, so
// the WAL's T runs 42, 41, 43, ... beside ShardT 41, 42, 43, ... Every
// record must be replayed, none diverge, and the accounting be exact.
func TestOneSectionV2Restores(t *testing.T) {
	capacity := catalog.EDR().TotalBytes() / 2
	med1, _ := newTestMediator(t, "rate-profile", capacity)
	driveQueries(t, med1, 40)
	st, err := med1.SnapshotState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sections) != 1 {
		t.Fatalf("snapshot carries %d sections, want 1", len(st.Sections))
	}
	var wal recordKeeper
	med1.SetJournal(&wal)
	driveQueries(t, med1, 8)

	st.Clock += 2
	st.Acct.Queries += 2
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(st.Clock)), encodeSnapshotFrame(st, time.Now().Unix()), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := newWALWriter(filepath.Join(dir, walName(st.Clock)))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range wal.recs {
		switch rec.ShardT {
		case 41:
			rec.T = 42
		case 42:
			rec.T = 41
		}
		if _, _, err := w.append(rec, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	med2, reg2 := newTestMediator(t, "rate-profile", capacity)
	m2, err := Open(testConfig(dir, reg2), med2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rep := m2.Recovery()
	if !rep.Warm || rep.Fallbacks != 0 || rep.Replayed != len(wal.recs) || rep.Diverged != 0 {
		t.Fatalf("want warm start replaying all %d records, got %s", len(wal.recs), rep)
	}
	checkRestored(t, m2, med1)
}

// TestMultiSectionSnapshotColdStarts opens a state directory whose
// snapshots carry two sections, what a build that split the cache in
// two left behind. Each is skipped with the reason logged and counted,
// the proxy starts cold, Σ ledger yields = D_A holds from zero, and the
// next restart is warm from what the cold start wrote, not cold again
// from the refused files.
func TestMultiSectionSnapshotColdStarts(t *testing.T) {
	capacity := catalog.EDR().TotalBytes() / 2
	med1, _ := newTestMediator(t, "rate-profile", capacity)
	dir := t.TempDir()
	for _, n := range []int{30, 10} { // two generations, as gc keeps
		driveQueries(t, med1, n)
		st, err := med1.SnapshotState(nil)
		if err != nil {
			t.Fatal(err)
		}
		st.Sections = append(st.Sections, federation.Section{})
		if err := os.WriteFile(filepath.Join(dir, snapName(st.Clock)), encodeSnapshotFrame(st, time.Now().Unix()), 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := newWALWriter(filepath.Join(dir, walName(st.Clock)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
	}

	med2, reg2 := newTestMediator(t, "rate-profile", capacity)
	cfg := testConfig(dir, reg2)
	var logged []string
	cfg.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	m2, err := Open(cfg, med2)
	if err != nil {
		t.Fatal(err)
	}
	rep := m2.Recovery()
	if rep.Warm || rep.Fallbacks != 2 || rep.Acct.Queries != 0 {
		t.Fatalf("want cold start with 2 fallbacks, got %s", rep)
	}
	if reg2.Snapshot().CounterValue("persist.snapshot_fallbacks", "") != 2 {
		t.Fatal("persist.snapshot_fallbacks not counted")
	}
	named := 0
	for _, line := range logged {
		if strings.Contains(line, "skipping snapshot") && strings.Contains(line, "carries 2 decision-plane sections") {
			named++
		}
	}
	if named != 2 {
		t.Fatalf("refusal not named twice in the log: %q", logged)
	}
	driveQueries(t, med2, 12)
	checkInvariant(t, med2, reg2)
	var ledgerYield int64
	for _, r := range med2.Ledger().Snapshot() {
		ledgerYield += r.Yield
	}
	if acct := med2.Accounting(); acct.Queries != 12 || ledgerYield != acct.DeliveredBytes() {
		t.Fatalf("after cold start: Σ ledger yields = %d, accounting %+v", ledgerYield, acct)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	med3, reg3 := newTestMediator(t, "rate-profile", capacity)
	m3, err := Open(testConfig(dir, reg3), med3)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if rep := m3.Recovery(); !rep.Warm || rep.Fallbacks != 0 {
		t.Fatalf("restart after the cold start: want warm with no fallbacks, got %s", rep)
	}
	checkRestored(t, m3, med2)
}
