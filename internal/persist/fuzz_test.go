package persist

import (
	"bytes"
	"testing"
	"time"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
)

// fuzzPolicies are the policies whose RestoreState decoders the
// snapshot fuzzer drives: every factory name, each with a blob codec.
var fuzzPolicies = core.PolicyNames()

// validWALImage builds a well-formed WAL file image carrying the given
// records — the fuzzer's structured seed.
func validWALImage(recs ...federation.JournalRecord) []byte {
	var payloads [][]byte
	for _, rec := range recs {
		payloads = append(payloads, encodeRecord(rec))
	}
	return walImage(payloads...)
}

// FuzzWALReplay feeds arbitrary bytes to the WAL walker: it must never
// panic, every record it yields must survive decodeRecord's range
// guards, and a torn tail must never also report records beyond the
// tear (prefix property).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(walMagic))
	f.Add([]byte("BYWAL1\n\x00garbage"))
	f.Add(validWALImage(
		federation.JournalRecord{Kind: federation.JournalAccess, T: 1, Object: "photo/photoobj", Yield: 4096, Decision: core.Load},
		federation.JournalRecord{Kind: federation.JournalForced, T: 2, Object: "spec/specobj", Yield: 128, Decision: core.Hit},
		federation.JournalRecord{Kind: federation.JournalFailed, T: 3, Object: "meta/frame", Yield: 0},
	))
	// A valid prefix with a torn header appended.
	torn := validWALImage(federation.JournalRecord{Kind: federation.JournalAccess, T: 9, Object: "x", Yield: 1, Decision: core.Bypass})
	f.Add(append(torn, 0xFF, 0x00, 0x00))
	// Header promising more payload than follows.
	f.Add(append(append([]byte(walMagic), 64, 0, 0, 0, 1, 2, 3, 4), []byte("short")...))
	// The legacy records: a version-1 record's one clock, and a
	// version-2 record whose clocks differ (only the second is read).
	legacy := federation.JournalRecord{Kind: federation.JournalAccess, T: 7, Object: "photo/photoobj", Yield: 4096, Decision: core.Load}
	f.Add(walImage(encodeV1Record(legacy), encodeV2Record(legacy, 9)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []federation.JournalRecord
		tornTail, detail, err := walkWAL(data, func(rec federation.JournalRecord) error {
			recs = append(recs, rec)
			return nil
		})
		if err != nil {
			t.Fatalf("callback returned nil errors only, walkWAL err = %v", err)
		}
		if tornTail && detail == "" {
			t.Fatal("torn tail without detail")
		}
		for i, rec := range recs {
			switch rec.Kind {
			case federation.JournalAccess, federation.JournalForced, federation.JournalFailed:
			default:
				t.Fatalf("record %d: invalid kind %d escaped decode", i, rec.Kind)
			}
			if rec.T < 0 || rec.Yield < 0 {
				t.Fatalf("record %d: out-of-range fields escaped decode: %+v", i, rec)
			}
		}
		// Round-trip: a delivered record must re-encode decodable.
		for _, rec := range recs {
			if _, err := decodeRecord(encodeRecord(rec)); err != nil {
				t.Fatalf("record %+v does not round-trip: %v", rec, err)
			}
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes through the snapshot frame
// decoder and then pushes any surviving policy blob into every policy
// decoder: corrupt input must error, never panic, and never leave a
// policy unusable.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	f.Add([]byte("BYSNAP1\ngarbage after magic"))
	// A genuine snapshot of a populated rate-profile cache.
	pol, err := core.NewPolicyByName("rate-profile", 1<<20, 1)
	if err != nil {
		f.Fatal(err)
	}
	objs := map[core.ObjectID]core.Object{}
	for i, id := range []core.ObjectID{"a", "b", "c", "d"} {
		o := core.Object{ID: id, Size: int64(1000 * (i + 1)), FetchCost: 1500 * int64(i+1), Site: "s"}
		objs[id] = o
		pol.Access(int64(i+1), o, o.Size/2)
	}
	blob := pol.(core.StateSnapshotter).SnapshotState()
	st := federation.State{
		Clock: 4, Schema: "edr", Granularity: federation.Tables,
		PolicyName: "rate-profile", Capacity: 1 << 20,
		Acct:       core.Accounting{Queries: 4, Accesses: 4, Loads: 4, FetchBytes: 10000, CacheBytes: 0, YieldBytes: 5000},
		PolicyBlob: blob,
	}
	created := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	frame := encodeSnapshotFrame(st, created)
	f.Add(frame)
	// The legacy shapes: a version-1 frame, and a version-2 frame with
	// two sections, which decode refuses.
	f.Add(encodeV1Snapshot(st, created))
	f.Add(encodeV2Snapshot(st, created, section{st.Clock, st.Acct, blob}, section{}))
	// The same frame with a flipped payload byte (checksum must catch).
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-3] ^= 0x40
	f.Add(flipped)
	// A genuine LRU blob with one byte appended, which every decoder
	// must refuse without a change.
	lru, err := core.NewPolicyByName("lru", 1<<20, 1)
	if err != nil {
		f.Fatal(err)
	}
	for i, id := range []core.ObjectID{"a", "b", "c", "d"} {
		lru.Access(int64(i+1), objs[id], objs[id].Size)
	}
	trailing := st
	trailing.PolicyName = "lru"
	trailing.PolicyBlob = append(lru.(core.StateSnapshotter).SnapshotState(), 0xFF)
	f.Add(encodeSnapshotFrame(trailing, created))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, _, err := decodeSnapshotFrame(data)
		if err != nil {
			return
		}
		// Structurally valid frame: the accounting identity the ledger
		// relies on must still be checkable without overflow panics.
		_ = st.Acct.DeliveredBytes()
		// Any blob that decoded is fed to every policy decoder; each
		// must either accept it or reject it cleanly — a refused blob
		// changing nothing — and stay usable either way.
		for _, name := range fuzzPolicies {
			p, err := core.NewPolicyByName(name, 1<<20, 2)
			if err != nil {
				t.Fatal(err)
			}
			ss, ok := p.(core.StateSnapshotter)
			if !ok {
				t.Fatalf("policy %s lost its StateSnapshotter", name)
			}
			fresh := ss.SnapshotState()
			if err := ss.RestoreState(st.PolicyBlob); err != nil && !bytes.Equal(ss.SnapshotState(), fresh) {
				t.Fatalf("policy %s refused the blob (%v) but its state changed", name, err)
			}
			o := core.Object{ID: "probe", Size: 100, FetchCost: 300, Site: "s"}
			if d := p.Access(1, o, 50); d < core.Hit || d > core.Load {
				t.Fatalf("policy %s returned invalid decision %d after restore attempt", name, d)
			}
		}
	})
}
