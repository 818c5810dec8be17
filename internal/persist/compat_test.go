package persist

// Snapshot format compatibility. State directories outlive builds, so
// three things must keep holding:
//
//   - a version-1 snapshot (no section list) restores;
//   - a version-2 snapshot with one section restores and its WAL
//     replays exactly, also when written by a build that claimed the
//     query sequence T outside the decision lock, so that T is neither
//     the header's clock nor in decision order and only the record's
//     second clock, the plane clock, is;
//   - a version-2 snapshot with several sections — a cache that was
//     split into independent slices — is refused by name, and the
//     proxy starts cold and stays consistent.
//
// These run in `make crash` alongside the kill-recovery suite.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/statecodec"
)

// The encoders below write the legacy shapes a State and a
// JournalRecord no longer express, byte for byte as the builds that
// wrote them did.

// section is one decision-plane section of a version-2 snapshot;
// builds that partitioned the plane wrote one per partition.
type section struct {
	clock int64
	acct  core.Accounting
	blob  []byte
}

// snapshotHeader writes a snapshot payload's header.
func snapshotHeader(e *statecodec.Encoder, version uint8, st federation.State, createdUnix int64) {
	e.U8(version)
	e.I64(createdUnix)
	e.I64(st.Clock)
	e.Str(st.Schema)
	e.U8(uint8(st.Granularity))
	e.Str(st.PolicyName)
	e.I64(st.Capacity)
	putAcct(e, st.Acct)
}

// encodeV1Snapshot frames a State exactly as version-1 builds did: no
// section list, the policy blob trailing the header.
func encodeV1Snapshot(st federation.State, createdUnix int64) []byte {
	var e statecodec.Encoder
	snapshotHeader(&e, 1, st, createdUnix)
	e.Blob(st.PolicyBlob)
	return appendFrame([]byte(snapMagic), e.Bytes())
}

// encodeV2Snapshot frames a version-2 snapshot with st as its header
// and the given sections.
func encodeV2Snapshot(st federation.State, createdUnix int64, secs ...section) []byte {
	var e statecodec.Encoder
	snapshotHeader(&e, 2, st, createdUnix)
	e.U64(uint64(len(secs)))
	for _, sec := range secs {
		e.I64(sec.clock)
		putAcct(&e, sec.acct)
		e.Blob(sec.blob)
	}
	return appendFrame([]byte(snapMagic), e.Bytes())
}

// encodeV1Record writes a version-1 journal record: one clock.
func encodeV1Record(rec federation.JournalRecord) []byte {
	var e statecodec.Encoder
	e.U8(1)
	e.U8(uint8(rec.Kind))
	e.I64(rec.T)
	e.U8(uint8(rec.Decision))
	e.Str(string(rec.Object))
	e.I64(rec.Yield)
	return e.Bytes()
}

// encodeV2Record writes a version-2 journal record with seq as its
// first clock, the query sequence, and rec.T as its second, the plane
// clock; builds that partitioned the plane wrote the two apart.
func encodeV2Record(rec federation.JournalRecord, seq int64) []byte {
	var e statecodec.Encoder
	e.U8(2)
	e.U8(uint8(rec.Kind))
	e.I64(seq)
	e.I64(rec.T)
	e.U8(uint8(rec.Decision))
	e.Str(string(rec.Object))
	e.I64(rec.Yield)
	return e.Bytes()
}

// walImage frames record payloads into a WAL file image.
func walImage(payloads ...[]byte) []byte {
	b := []byte(walMagic)
	for _, p := range payloads {
		b = appendFrame(b, p)
	}
	return b
}

// checkRestored asserts med holds exactly the accounting, clock and
// cache med1 had, and keeps accounting correctly for new traffic.
func checkRestored(t *testing.T, m *Manager, med1 *federation.Mediator) {
	t.Helper()
	med, reg := m.med, m.cfg.Obs
	if got, want := med.Accounting(), med1.Accounting(); got != want {
		t.Fatalf("restored accounting %+v, want %+v", got, want)
	}
	gotStats, wantStats := med.Read(ledger.Query{}), med1.Read(ledger.Query{})
	if gotStats.Clock != wantStats.Clock {
		t.Fatalf("restored clock = %d, want %d", gotStats.Clock, wantStats.Clock)
	}
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
	// into the header's accounting and the blob before the mediator
	// ever sees it.
	if v := frame[len(snapMagic)+8]; v != 1 {
		t.Fatalf("hand-built frame has version %d", v)
	}
	dec, _, err := decodeSnapshotFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.PolicyBlob) == 0 || dec.Acct != st.Acct {
		t.Fatalf("v1 decode: %+v, want the header's accounting and the blob", dec)
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
// one-section build that claimed the query sequence outside the lock:
// two queries had theirs when the snapshot was cut, so the header's
// clock is two ahead of the section's, and they then decided in the
// other order, so the WAL's first clock runs 42, 41, 43, ... beside
// its second, the plane clock, 41, 42, 43, ... Every record must be
// replayed, none diverge, and the accounting be exact.
func TestOneSectionV2Restores(t *testing.T) {
	capacity := catalog.EDR().TotalBytes() / 2
	med1, _ := newTestMediator(t, "rate-profile", capacity)
	driveQueries(t, med1, 40)
	st, err := med1.SnapshotState(nil)
	if err != nil {
		t.Fatal(err)
	}
	var wal recordKeeper
	med1.SetJournal(&wal)
	driveQueries(t, med1, 8)

	header := st
	header.Clock += 2
	header.Acct.Queries += 2
	frame := encodeV2Snapshot(header, time.Now().Unix(), section{st.Clock, st.Acct, st.PolicyBlob})
	// Sanity: the section, not the header, supplies clock and
	// accounting before the mediator ever sees the frame.
	dec, _, err := decodeSnapshotFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Clock != st.Clock || dec.Acct != st.Acct {
		t.Fatalf("one-section decode: clock %d, accounting %+v; want the section's %d, %+v", dec.Clock, dec.Acct, st.Clock, st.Acct)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(header.Clock)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, rec := range wal.recs {
		seq := rec.T
		switch rec.T {
		case 41:
			seq = 42
		case 42:
			seq = 41
		}
		payloads = append(payloads, encodeV2Record(rec, seq))
	}
	if err := os.WriteFile(filepath.Join(dir, walName(header.Clock)), walImage(payloads...), 0o644); err != nil {
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
		frame := encodeV2Snapshot(st, time.Now().Unix(), section{st.Clock, st.Acct, st.PolicyBlob}, section{})
		if err := os.WriteFile(filepath.Join(dir, snapName(st.Clock)), frame, 0o644); err != nil {
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
	for _, r := range med2.Read(ledger.Query{}).Records {
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

// pinnedState is TestStateFormatIsPinned's State: a rate-profile cache
// with open and closed episodes after fixed accesses.
func pinnedState(t *testing.T) federation.State {
	t.Helper()
	pol, err := core.NewPolicyByName("rate-profile", 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	objs := []core.Object{
		{ID: "edr/photoobj.ra", Size: 96000, FetchCost: 144000, Site: "photo.sdss.org"},
		{ID: "edr/photoobj.dec", Size: 96000, FetchCost: 144000, Site: "photo.sdss.org"},
		{ID: "edr/specobj.z", Size: 24000, FetchCost: 36000, Site: "spec.sdss.org"},
		{ID: "edr/frame", Size: 2000000, FetchCost: 3000000, Site: "meta.sdss.org"},
	}
	for i := 0; i < 24; i++ {
		o := objs[(i*i+i/3)%len(objs)]
		pol.Access(int64(i+1), o, o.Size/int64(2+i%5))
	}
	return federation.State{
		Clock: 24, Schema: "edr", Granularity: federation.Columns,
		PolicyName: "rate-profile", Capacity: 1 << 20,
		Acct: core.Accounting{Queries: 24, Accesses: 24, Hits: 11, Bypasses: 9, Loads: 4, Evictions: 1,
			BypassBytes: 700000, FetchBytes: 312000, CacheBytes: 180000, YieldBytes: 880000},
		PolicyBlob: pol.(core.StateSnapshotter).SnapshotState(),
	}
}

// pinnedRecords are TestStateFormatIsPinned's journal records, one of
// each kind.
var pinnedRecords = []federation.JournalRecord{
	{Kind: federation.JournalAccess, T: 25, Object: "edr/photoobj.ra", Yield: 48000, Decision: core.Load},
	{Kind: federation.JournalForced, T: 26, Object: "edr/specobj.z", Yield: 12000, Decision: core.Hit},
	{Kind: federation.JournalFailed, T: 26, Object: "edr/frame", Yield: 0, Decision: core.Bypass},
}

// TestStateFormatIsPinned holds the bytes a state directory is written
// in to the files under testdata, which a build before the one codec
// wrote from the same inputs: a snapshot file (frame, header, section,
// rate-profile blob) and a WAL file (magic, frames, version-2 records),
// the latter through the writer the journal appends with. Both files
// decode back to their inputs.
func TestStateFormatIsPinned(t *testing.T) {
	st := pinnedState(t)
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC).Unix()
	want, err := os.ReadFile(filepath.Join("testdata", "state.bys"))
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeSnapshotFrame(st, created); !bytes.Equal(got, want) {
		t.Fatalf("snapshot file is\n%x\nwant\n%x", got, want)
	}
	dec, decCreated, err := decodeSnapshotFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	if decCreated != created || !reflect.DeepEqual(dec, st) {
		t.Fatalf("pinned snapshot decodes to %+v created %d, want %+v created %d", dec, decCreated, st, created)
	}

	path := filepath.Join(t.TempDir(), walName(st.Clock))
	w, err := newWALWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range pinnedRecords {
		if _, _, err := w.append(rec, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, err = os.ReadFile(filepath.Join("testdata", "state.byw")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wal file is\n%x\nwant\n%x", got, want)
	}
	var recs []federation.JournalRecord
	torn, detail, err := walkWAL(want, func(rec federation.JournalRecord) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil || torn || !reflect.DeepEqual(recs, pinnedRecords) {
		t.Fatalf("pinned wal walks to %+v (torn %t %q, %v), want %+v", recs, torn, detail, err, pinnedRecords)
	}
}
