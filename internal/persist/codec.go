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
// after the file's 8-byte magic "BYWAL1\n\x00". Payloads use the same
// compact primitives as the core policy blobs: varint integers and
// length-prefixed strings, with a leading version byte so future
// encodings are detected rather than misread. All decoders are
// strict: truncated, oversized, or checksum-failing input is reported
// as invalid (snapshots) or a torn tail (WAL records) — never a panic
// and never a partial application (the fuzz targets drive arbitrary
// bytes through both).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
)

const (
	snapMagic = "BYSNAP1\n"
	walMagic  = "BYWAL1\n\x00"

	// snapVersion 2 frames a counted list of sections (clock,
	// accounting, policy blob) after the header; this build writes and
	// restores exactly one, and builds that sharded the decision plane
	// wrote one per shard. Version-1 snapshots decode into one
	// section. recVersion 2 added the plane clock (ShardT)
	// beside the query sequence T; version-1 records decode with
	// ShardT = T.
	snapVersion = 2
	recVersion  = 2

	// maxWALRecord bounds one journal record's payload; anything
	// larger is corruption, not data.
	maxWALRecord = 1 << 20
	// maxSnapshotPayload bounds a snapshot payload (the policy blob
	// dominates; even a fully populated cache is far below this).
	maxSnapshotPayload = 1 << 30
)

// castagnoli is the CRC-32C table used for every frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcSum checksums one frame payload.
func crcSum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// enc builds a payload.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) str(s string) { e.u64(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) bytes(p []byte) {
	e.u64(uint64(len(p)))
	e.b = append(e.b, p...)
}

// dec consumes a payload with error latching.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("persist: truncated payload (u8)")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("persist: truncated payload (varint)")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("persist: truncated payload (uvarint)")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("persist: string length %d exceeds remaining %d bytes", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) bytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("persist: blob length %d exceeds remaining %d bytes", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("persist: %d trailing bytes in payload", len(d.b))
	}
	return nil
}

// maxSnapshotShards bounds the section count of a snapshot from
// outside; anything larger is corruption, not data.
const maxSnapshotShards = 1 << 16

// encodeAcct serializes one accounting block.
func (e *enc) acct(a core.Accounting) {
	e.i64(a.Queries)
	e.i64(a.Accesses)
	e.i64(a.Hits)
	e.i64(a.Bypasses)
	e.i64(a.Loads)
	e.i64(a.Evictions)
	e.i64(a.BypassBytes)
	e.i64(a.FetchBytes)
	e.i64(a.CacheBytes)
	e.i64(a.YieldBytes)
}

// decodeAcct parses one accounting block.
func (d *dec) acct() core.Accounting {
	return core.Accounting{
		Queries:     d.i64(),
		Accesses:    d.i64(),
		Hits:        d.i64(),
		Bypasses:    d.i64(),
		Loads:       d.i64(),
		Evictions:   d.i64(),
		BypassBytes: d.i64(),
		FetchBytes:  d.i64(),
		CacheBytes:  d.i64(),
		YieldBytes:  d.i64(),
	}
}

// encodeSnapshot serializes a mediator State (plus the wall-clock
// creation time) into a snapshot payload: the header followed by the
// State's sections.
func encodeSnapshot(st federation.State, createdUnix int64) []byte {
	var e enc
	e.u8(snapVersion)
	e.i64(createdUnix)
	e.i64(st.Clock)
	e.str(st.Schema)
	e.u8(uint8(st.Granularity))
	e.str(st.PolicyName)
	e.i64(st.Capacity)
	e.acct(st.Acct)
	e.u64(uint64(len(st.Sections)))
	for _, sec := range st.Sections {
		e.i64(sec.Clock)
		e.acct(sec.Acct)
		e.bytes(sec.PolicyBlob)
	}
	return e.b
}

// decodeSnapshot parses a snapshot payload, either version: a
// version-1 payload, which has no section list, decodes into one
// section holding the header's clock and accounting and the trailing
// policy blob. It validates structure only; semantic guards (schema,
// policy, capacity, section count) belong to Mediator.RestoreState.
func decodeSnapshot(payload []byte) (federation.State, int64, error) {
	d := dec{b: payload}
	v := d.u8()
	if d.err == nil && v != 1 && v != snapVersion {
		return federation.State{}, 0, fmt.Errorf("persist: snapshot version %d, want 1 or %d", v, snapVersion)
	}
	created := d.i64()
	var st federation.State
	st.Clock = d.i64()
	st.Schema = d.str()
	st.Granularity = federation.Granularity(d.u8())
	st.PolicyName = d.str()
	st.Capacity = d.i64()
	st.Acct = d.acct()
	n := uint64(1)
	if v != 1 {
		n = d.u64()
		if d.err == nil && n > maxSnapshotShards {
			return federation.State{}, 0, fmt.Errorf("persist: snapshot carries %d sections", n)
		}
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		sec := federation.Section{Clock: st.Clock, Acct: st.Acct}
		if v != 1 {
			sec.Clock, sec.Acct = d.i64(), d.acct()
		}
		if blob := d.bytes(); len(blob) > 0 {
			sec.PolicyBlob = append([]byte(nil), blob...)
		}
		st.Sections = append(st.Sections, sec)
	}
	if err := d.done(); err != nil {
		return federation.State{}, 0, err
	}
	return st, created, nil
}

// decodeSnapshotFrame parses a whole snapshot file: magic, length,
// checksum, payload.
func decodeSnapshotFrame(data []byte) (federation.State, int64, error) {
	if len(data) < len(snapMagic)+8 {
		return federation.State{}, 0, fmt.Errorf("persist: snapshot file too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return federation.State{}, 0, fmt.Errorf("persist: bad snapshot magic")
	}
	rest := data[len(snapMagic):]
	n := binary.LittleEndian.Uint32(rest[0:4])
	sum := binary.LittleEndian.Uint32(rest[4:8])
	if n > maxSnapshotPayload || uint64(n) != uint64(len(rest)-8) {
		return federation.State{}, 0, fmt.Errorf("persist: snapshot payload length %d, file carries %d", n, len(rest)-8)
	}
	payload := rest[8:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return federation.State{}, 0, fmt.Errorf("persist: snapshot checksum mismatch")
	}
	return decodeSnapshot(payload)
}

// encodeSnapshotFrame builds the full snapshot file contents.
func encodeSnapshotFrame(st federation.State, createdUnix int64) []byte {
	payload := encodeSnapshot(st, createdUnix)
	out := make([]byte, 0, len(snapMagic)+8+len(payload))
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// encodeRecord serializes one journal record payload.
func encodeRecord(rec federation.JournalRecord) []byte {
	var e enc
	e.u8(recVersion)
	e.u8(uint8(rec.Kind))
	e.i64(rec.T)
	e.i64(rec.ShardT)
	e.u8(uint8(rec.Decision))
	e.str(string(rec.Object))
	e.i64(rec.Yield)
	return e.b
}

// decodeRecord parses one journal record payload, either version. A
// version-1 record decodes with ShardT = T, which was its plane clock.
func decodeRecord(payload []byte) (federation.JournalRecord, error) {
	d := dec{b: payload}
	v := d.u8()
	if d.err == nil && v != 1 && v != recVersion {
		return federation.JournalRecord{}, fmt.Errorf("persist: wal record version %d, want 1 or %d", v, recVersion)
	}
	rec := federation.JournalRecord{
		Kind: federation.JournalKind(d.u8()),
		T:    d.i64(),
	}
	if v == 1 {
		rec.ShardT = rec.T
	} else {
		rec.ShardT = d.i64()
	}
	rec.Decision = core.Decision(d.u8())
	rec.Object = core.ObjectID(d.str())
	rec.Yield = d.i64()
	if err := d.done(); err != nil {
		return federation.JournalRecord{}, err
	}
	switch rec.Kind {
	case federation.JournalAccess, federation.JournalForced, federation.JournalFailed:
	default:
		return federation.JournalRecord{}, fmt.Errorf("persist: unknown wal record kind %d", rec.Kind)
	}
	if rec.T < 0 || rec.ShardT < 0 || rec.Yield < 0 || rec.Yield > math.MaxInt64/2 {
		return federation.JournalRecord{}, fmt.Errorf("persist: wal record out of range (t=%d shardT=%d yield=%d)", rec.T, rec.ShardT, rec.Yield)
	}
	return rec, nil
}

// walkWAL iterates the records of a WAL image (everything after the
// file magic is CRC-framed records). It stops at the first torn or
// corrupt frame — the records before it are a consistent prefix —
// and reports how the tail ended. A missing or short magic means the
// file died during creation: zero records, torn. fn errors abort the
// walk and surface as err.
func walkWAL(data []byte, fn func(rec federation.JournalRecord) error) (n int, torn bool, tornDetail string, err error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return 0, true, "missing wal magic (torn creation)", nil
	}
	b := data[len(walMagic):]
	for len(b) > 0 {
		if len(b) < 8 {
			return n, true, fmt.Sprintf("torn record header (%d trailing bytes)", len(b)), nil
		}
		plen := binary.LittleEndian.Uint32(b[0:4])
		sum := binary.LittleEndian.Uint32(b[4:8])
		if plen > maxWALRecord {
			return n, true, fmt.Sprintf("record length %d exceeds bound", plen), nil
		}
		if uint64(len(b)-8) < uint64(plen) {
			return n, true, fmt.Sprintf("torn record payload (%d of %d bytes)", len(b)-8, plen), nil
		}
		payload := b[8 : 8+plen]
		if crc32.Checksum(payload, castagnoli) != sum {
			return n, true, "record checksum mismatch", nil
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return n, true, derr.Error(), nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return n, false, "", err
			}
		}
		n++
		b = b[8+plen:]
	}
	return n, false, "", nil
}
