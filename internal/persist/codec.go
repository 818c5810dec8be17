package persist

// On-disk encodings. Two file kinds live in the state directory:
//
//	snap-<clock>.bys   one checksummed snapshot frame (atomic rename)
//	wal-<clock>.byw    magic + append-only CRC-framed journal records
//
// The snapshot frame is
//
//	[8-byte magic "BYSNAP1\n"][u32 LE payload len][u32 LE CRC-32C][payload]
//
// and each WAL record is
//
//	[u32 LE payload len][u32 LE CRC-32C][payload]
//
// after the file's 8-byte magic "BYWAL1\n\x00"; appendFrame writes
// that frame and cutFrame reads it, for both. Payloads are written in
// internal/statecodec, the codec of the core policy blobs as well:
// varint integers and length-prefixed strings, with a leading version
// byte so future encodings are detected rather than misread. All
// decoders are strict: truncated, oversized, or checksum-failing input
// is reported as invalid (snapshots) or a torn tail (WAL records) —
// never a panic and never a partial application (the fuzz targets
// drive arbitrary bytes through both).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/statecodec"
)

const (
	snapMagic = "BYSNAP1\n"
	walMagic  = "BYWAL1\n\x00"

	// snapVersion 2 frames a counted list of sections (clock,
	// accounting, policy blob) after the header. This build writes a
	// count of 1 and restores only that; builds that partitioned the
	// decision plane wrote one section per partition. A version-1
	// snapshot has no list: the policy blob follows the header.
	// recVersion 2 carries two clocks, the query sequence and the plane
	// clock (the partitioned builds' ShardT); this build writes its one
	// clock twice and reads the second. A version-1 record carries one.
	snapVersion = 2
	recVersion  = 2

	// frameHeader is a frame's length and checksum words.
	frameHeader = 8
	// maxWALRecord bounds one journal record's payload; anything
	// larger is corruption, not data.
	maxWALRecord = 1 << 20
	// maxSnapshotPayload bounds a snapshot payload (the policy blob
	// dominates; even a fully populated cache is far below this).
	maxSnapshotPayload = 1 << 30
)

// castagnoli is the CRC-32C table used for every frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends payload to b as one frame: [u32 LE len][u32 LE
// CRC-32C][payload].
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// cutFrame splits the frame at the front of b into its payload, at
// most limit bytes and checksum-verified, and the bytes after it. The
// error says how the frame is torn or corrupt.
func cutFrame(b []byte, limit uint32) (payload, rest []byte, err error) {
	if len(b) < frameHeader {
		return nil, nil, fmt.Errorf("torn frame header (%d trailing bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n > limit {
		return nil, nil, fmt.Errorf("frame length %d exceeds bound", n)
	}
	if uint64(len(b)-frameHeader) < uint64(n) {
		return nil, nil, fmt.Errorf("torn frame payload (%d of %d bytes)", len(b)-frameHeader, n)
	}
	payload = b[frameHeader : frameHeader+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, nil, fmt.Errorf("frame checksum mismatch")
	}
	return payload, b[frameHeader+n:], nil
}

// putAcct writes one accounting block.
func putAcct(e *statecodec.Encoder, a core.Accounting) {
	e.I64(a.Queries)
	e.I64(a.Accesses)
	e.I64(a.Hits)
	e.I64(a.Bypasses)
	e.I64(a.Loads)
	e.I64(a.Evictions)
	e.I64(a.BypassBytes)
	e.I64(a.FetchBytes)
	e.I64(a.CacheBytes)
	e.I64(a.YieldBytes)
}

// acct reads what putAcct wrote.
func acct(d *statecodec.Decoder) core.Accounting {
	return core.Accounting{
		Queries:     d.I64(),
		Accesses:    d.I64(),
		Hits:        d.I64(),
		Bypasses:    d.I64(),
		Loads:       d.I64(),
		Evictions:   d.I64(),
		BypassBytes: d.I64(),
		FetchBytes:  d.I64(),
		CacheBytes:  d.I64(),
		YieldBytes:  d.I64(),
	}
}

// encodeSnapshot serializes a mediator State (plus the wall-clock
// creation time) into a version-2 snapshot payload: the header and a
// list of one section, which repeats the clock and accounting beside
// the policy blob.
func encodeSnapshot(st federation.State, createdUnix int64) []byte {
	var e statecodec.Encoder
	e.U8(snapVersion)
	e.I64(createdUnix)
	e.I64(st.Clock)
	e.Str(st.Schema)
	e.U8(uint8(st.Granularity))
	e.Str(st.PolicyName)
	e.I64(st.Capacity)
	putAcct(&e, st.Acct)
	e.U64(1)
	e.I64(st.Clock)
	putAcct(&e, st.Acct)
	e.Blob(st.PolicyBlob)
	return e.Bytes()
}

// decodeSnapshot parses a snapshot payload, either version. A
// version-2 payload's one section supplies the clock and accounting:
// the header's can be ahead of it in a snapshot from a build that
// claimed the query clock outside the decision lock. A version-2
// payload with any other section count is refused. It validates
// structure only; the configuration guards belong to
// Mediator.RestoreState.
func decodeSnapshot(payload []byte) (federation.State, int64, error) {
	d := statecodec.NewDecoder(payload)
	v := d.U8()
	if d.Err() == nil && v != 1 && v != snapVersion {
		return federation.State{}, 0, fmt.Errorf("snapshot version %d, want 1 or %d", v, snapVersion)
	}
	created := d.I64()
	st := federation.State{
		Clock:       d.I64(),
		Schema:      d.Str(),
		Granularity: federation.Granularity(d.U8()),
		PolicyName:  d.Str(),
		Capacity:    d.I64(),
		Acct:        acct(&d),
	}
	if v == snapVersion {
		if n := d.U64(); d.Err() == nil && n != 1 {
			return federation.State{}, 0, fmt.Errorf("snapshot carries %d decision-plane sections (a cache split into independent slices), mediator runs one cache", n)
		}
		st.Clock, st.Acct = d.I64(), acct(&d)
	}
	if blob := d.Blob(); len(blob) > 0 {
		st.PolicyBlob = append([]byte(nil), blob...)
	}
	if err := d.Done(); err != nil {
		return federation.State{}, 0, err
	}
	return st, created, nil
}

// decodeSnapshotFrame parses a whole snapshot file: magic, then one
// frame that ends the file.
func decodeSnapshotFrame(data []byte) (federation.State, int64, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return federation.State{}, 0, fmt.Errorf("bad snapshot magic")
	}
	payload, rest, err := cutFrame(data[len(snapMagic):], maxSnapshotPayload)
	if err != nil {
		return federation.State{}, 0, fmt.Errorf("snapshot: %v", err)
	}
	if len(rest) != 0 {
		return federation.State{}, 0, fmt.Errorf("snapshot: %d bytes after the frame", len(rest))
	}
	return decodeSnapshot(payload)
}

// encodeSnapshotFrame builds the full snapshot file contents.
func encodeSnapshotFrame(st federation.State, createdUnix int64) []byte {
	return appendFrame([]byte(snapMagic), encodeSnapshot(st, createdUnix))
}

// encodeRecord serializes one journal record payload, version 2 with
// the record's clock in both clock fields.
func encodeRecord(rec federation.JournalRecord) []byte {
	var e statecodec.Encoder
	e.U8(recVersion)
	e.U8(uint8(rec.Kind))
	e.I64(rec.T)
	e.I64(rec.T)
	e.U8(uint8(rec.Decision))
	e.Str(string(rec.Object))
	e.I64(rec.Yield)
	return e.Bytes()
}

// decodeRecord parses one journal record payload, either version: a
// version-1 record's one clock, a version-2 record's second.
func decodeRecord(payload []byte) (federation.JournalRecord, error) {
	d := statecodec.NewDecoder(payload)
	v := d.U8()
	if d.Err() == nil && v != 1 && v != recVersion {
		return federation.JournalRecord{}, fmt.Errorf("wal record version %d, want 1 or %d", v, recVersion)
	}
	rec := federation.JournalRecord{
		Kind: federation.JournalKind(d.U8()),
		T:    d.I64(),
	}
	if v == recVersion {
		rec.T = d.I64()
	}
	rec.Decision = core.Decision(d.U8())
	rec.Object = core.ObjectID(d.Str())
	rec.Yield = d.I64()
	if err := d.Done(); err != nil {
		return federation.JournalRecord{}, err
	}
	switch rec.Kind {
	case federation.JournalAccess, federation.JournalForced, federation.JournalFailed:
	default:
		return federation.JournalRecord{}, fmt.Errorf("unknown wal record kind %d", rec.Kind)
	}
	if rec.T < 0 || rec.Yield < 0 || rec.Yield > math.MaxInt64/2 {
		return federation.JournalRecord{}, fmt.Errorf("wal record out of range (t=%d yield=%d)", rec.T, rec.Yield)
	}
	return rec, nil
}

// walkWAL iterates the records of a WAL image (everything after the
// file magic is CRC-framed records). It stops at the first torn or
// corrupt frame — the records before it are a consistent prefix —
// and reports how the tail ended. A missing or short magic means the
// file died during creation: zero records, torn. fn errors abort the
// walk and surface as err.
func walkWAL(data []byte, fn func(rec federation.JournalRecord) error) (torn bool, tornDetail string, err error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return true, "missing wal magic (torn creation)", nil
	}
	for b := data[len(walMagic):]; len(b) > 0; {
		payload, rest, ferr := cutFrame(b, maxWALRecord)
		if ferr != nil {
			return true, ferr.Error(), nil
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return true, derr.Error(), nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return false, "", err
			}
		}
		b = rest
	}
	return false, "", nil
}
