// Package statecodec is the one primitive codec of the proxy's durable
// state: the cache policies' state blobs (internal/core) and the
// snapshot and journal payloads that frame them (internal/persist) are
// written with its Encoder and read with its Decoder.
//
// The primitives are a byte, zig-zag varint and uvarint integers,
// little-endian IEEE-754 float bits, a bool byte, and uvarint
// length-prefixed strings and byte slices. The encoding carries no
// field tags: a payload is read back in the order it was written, and
// its leading version byte (Decoder.Version) is what tells one layout
// from the next.
//
// The Decoder latches its first error: after a failure every reader
// returns the zero value, and Done reports that error, so a decoder
// reads a whole layout and checks once. Lengths are bounded by the
// bytes that remain, so hostile input is refused before anything is
// allocated for it; no input panics.
package statecodec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder appends primitives to a payload.
type Encoder struct{ b []byte }

// Bytes returns the payload written so far.
func (e *Encoder) Bytes() []byte { return e.b }

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.b = append(e.b, v) }

// I64 writes a zig-zag varint.
func (e *Encoder) I64(v int64) { e.b = binary.AppendVarint(e.b, v) }

// U64 writes a uvarint.
func (e *Encoder) U64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// F64 writes a float's bits, little-endian.
func (e *Encoder) F64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (e *Encoder) Str(s string) { e.U64(uint64(len(s))); e.b = append(e.b, s...) }

// Blob writes a length-prefixed byte slice.
func (e *Encoder) Blob(p []byte) { e.U64(uint64(len(p))); e.b = append(e.b, p...) }

// Bool writes a bool as one byte, 1 or 0.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Decoder consumes a payload with error latching.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder over b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first failure, if any.
func (d *Decoder) Err() error { return d.err }

// Fail latches a failure unless one is latched already.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.Fail("truncated payload (u8)")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// I64 reads a zig-zag varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.Fail("truncated payload (varint)")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// U64 reads a uvarint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Fail("truncated payload (uvarint)")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// F64 reads a float's little-endian bits.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.Fail("truncated payload (f64)")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Bool reads a bool byte: any non-zero byte is true.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.span("string")) }

// Blob reads a length-prefixed byte slice. It aliases the payload:
// a caller that keeps it past the payload's life copies it.
func (d *Decoder) Blob() []byte { return d.span("blob") }

// Count reads a collection's length, bounded by the remaining bytes
// (every element costs at least one byte), so a hostile length is
// refused before anything is allocated for it.
func (d *Decoder) Count() int { return d.length("collection") }

// span reads a length prefix and the bytes it covers.
func (d *Decoder) span(what string) []byte {
	n := d.length(what)
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// length reads a uvarint length no larger than the remaining bytes.
func (d *Decoder) length(what string) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.Fail("%s length %d exceeds remaining %d bytes", what, n, len(d.b))
		return 0
	}
	return int(n)
}

// Version reads a version byte and fails unless it is want; what
// names the state for the error.
func (d *Decoder) Version(want uint8, what string) {
	if v := d.U8(); d.err == nil && v != want {
		d.Fail("%s state version %d, want %d", what, v, want)
	}
}

// Done returns the latched failure, or an error when bytes remain
// unread.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%d trailing bytes in payload", len(d.b))
	}
	return nil
}
