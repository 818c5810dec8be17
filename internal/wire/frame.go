// Package wire implements the federation's TCP protocol and the two
// daemon roles of the paper's prototype: database nodes (bydbd) that
// serve per-site sub-queries and object fetches, and the proxy
// (byproxyd) that collocates the mediator with a bypass-yield cache.
//
// Framing is length-prefixed: a 4-byte big-endian payload length, a
// 1-byte message type, then the payload. Result tuples are bounded
// (engine.Config.MaxResultRows), so frames stay small; the paper's
// gigabyte-scale flows are accounted logically (see the Proxy type).
//
// The two payloads on the query path, MsgQuery and MsgResult, are
// binary (protocol 3). Every other message — errors, fetches, pings
// and the scrape messages — is a JSON object, as all payloads were in
// protocol 1. Integers are encoding/binary varints (uvarint for
// counts and lengths, zig-zag varint for Rows, Bytes, Yield and
// LostBytes), str is a uvarint length followed by that many bytes,
// and a float64 is its IEEE-754 bits, little-endian, so NaN payloads,
// ±Inf, −0 and subnormals survive bit for bit.
//
//	MsgQuery
//	  byte     format = 3
//	  str      SQL
//	  str      TraceID  (empty when untraced)
//
//	MsgResult
//	  byte     format = 3
//	  byte     flags: 1 = Partial, 2 = ragged tuples
//	  varint   Rows
//	  varint   Bytes
//	  uvarint  number of tuples n, then
//	             rectangular, n > 0: uvarint width w ≥ 1, float64 × n·w
//	             ragged: n × (uvarint width, float64 × width)
//	  uvarint  number of columns, then a str each
//	  uvarint  number of decisions, then each:
//	             str Object, str Site, varint Yield,
//	             byte decision (0 hit, 1 bypass, 2 load, 3 failed),
//	             byte flags (1 = Forced, 2 = Failed), str Reason
//	  uvarint  number of site errors, then each:
//	             str Site, str Error, varint LostBytes
//	  uvarint  number of transport errors, same layout
//
// A body must be consumed exactly; a count is checked against the
// bytes that remain before anything is allocated for it. The format
// byte is never '{', so a protocol-1 peer's JSON query or result is
// recognised and refused with ErrProtocolVersion — answered as a JSON
// MsgError, which that peer can read — and so is a protocol-2 peer,
// whose queries carried a third string. There is no negotiation:
// clients (the by binary) are rebuilt with the daemons.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// MsgType identifies a frame's payload.
type MsgType uint8

// Protocol message types.
const (
	// MsgQuery carries SQL from client to proxy, or a sub-query from
	// proxy to a database node.
	MsgQuery MsgType = 1
	// MsgResult returns an execution result.
	MsgResult MsgType = 2
	// MsgError returns a failure.
	MsgError MsgType = 3
	// MsgFetch asks a database node for a whole object (a cache
	// load).
	MsgFetch MsgType = 4
	// MsgFetchAck acknowledges an object fetch with its logical size.
	MsgFetchAck MsgType = 5
	// MsgPing is a health probe (proxy → node); the prober pings a
	// down site, and the first pong readmits it.
	MsgPing MsgType = 12
	// MsgPong answers a ping.
	MsgPong MsgType = 13
	// MsgScrape asks a daemon (proxy or database node) for everything
	// it observes, under one filter (ScrapeMsg).
	MsgScrape MsgType = 16
	// MsgScrapeResult returns it (ScrapeResultMsg).
	MsgScrapeResult MsgType = 17

	// Types 6–11, 14 and 15 were four scrape requests and their
	// replies, which MsgScrape replaced. They are not reused: a frame of
	// one reads, and a daemon answers it with a MsgError and serves on.

	// maxMsgType is the highest assigned message type; ReadFrame
	// rejects anything beyond it.
	maxMsgType = MsgScrapeResult
)

// String names a message type for metric labels and diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgQuery:
		return "query"
	case MsgResult:
		return "result"
	case MsgError:
		return "error"
	case MsgFetch:
		return "fetch"
	case MsgFetchAck:
		return "fetch_ack"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgScrape:
		return "scrape"
	case MsgScrapeResult:
		return "scrape_result"
	default:
		return "unknown"
	}
}

// MaxFrame bounds accepted payloads (defense against corrupt length
// prefixes).
const MaxFrame = 16 << 20

// frameHeader is the length prefix plus the type byte.
const frameHeader = 5

// formatBinary opens every MsgQuery and MsgResult payload: the
// protocol version whose layout the package comment gives.
const formatBinary = 3

// ErrProtocolVersion reports a query or result payload that is not in
// this build's binary layout: a peer built before protocol 2, whose
// payloads were JSON, or a protocol-2 peer. The daemons answer it with
// a MsgError (JSON, so either peer can read it) and keep serving.
var ErrProtocolVersion = errors.New("wire: protocol version mismatch")

// errEncode marks a WriteFrame failure that put nothing on the wire:
// the payload could not be encoded, or encoded beyond MaxFrame.
var errEncode = errors.New("wire: encode")

// errMalformed is every way a binary payload can be cut short, overrun
// or claim more elements than its bytes could hold.
var errMalformed = errors.New("malformed binary payload")

// binaryMsg is a payload with a binary layout: QueryMsg and ResultMsg,
// as values or pointers. Anything else is encoded as JSON.
type binaryMsg interface {
	appendBinary(b []byte) ([]byte, error)
}

// frameBuf is a reusable encode buffer: it accumulates header and
// payload so a frame hits the socket in one Write. Binary payloads
// append to b directly; the JSON encoder is bound to the buffer once,
// so scrape and error frames reuse its scratch space too.
type frameBuf struct {
	b   []byte
	enc *json.Encoder
}

func (fb *frameBuf) Write(p []byte) (int, error) {
	fb.b = append(fb.b, p...)
	return len(p), nil
}

// frameBufMaxCap bounds buffers that are kept for reuse (encode
// buffers in the pool, per-connection read buffers); an occasional
// giant frame must not pin megabytes of scratch forever.
const frameBufMaxCap = 1 << 20

var framePool = sync.Pool{
	New: func() any {
		fb := &frameBuf{}
		fb.enc = json.NewEncoder(fb)
		return fb
	},
}

// WriteFrame writes one frame and returns the bytes put on the wire.
// Encode buffers are pooled — a QueryMsg or ResultMsg costs no
// allocation steady-state, see TestWriteFrameAllocs — and each frame
// reaches w in a single Write. An error that wraps errEncode means
// nothing was written.
func WriteFrame(w io.Writer, t MsgType, payload any) (int, error) {
	fb := framePool.Get().(*frameBuf)
	defer func() {
		if cap(fb.b) <= frameBufMaxCap {
			framePool.Put(fb)
		}
	}()
	fb.b = append(fb.b[:0], 0, 0, 0, 0, byte(t)) // length patched below
	var err error
	if m, ok := payload.(binaryMsg); ok {
		fb.b, err = m.appendBinary(fb.b)
	} else if err = fb.enc.Encode(payload); err == nil {
		fb.b = fb.b[:len(fb.b)-1] // Encode appends a newline
	}
	if err == nil && len(fb.b)-frameHeader > MaxFrame {
		err = fmt.Errorf("frame of %d bytes exceeds limit", len(fb.b)-frameHeader)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %w", errEncode, err)
	}
	binary.BigEndian.PutUint32(fb.b[:4], uint32(len(fb.b)-frameHeader))
	if _, err := w.Write(fb.b); err != nil {
		return 0, err
	}
	return len(fb.b), nil
}

// readChunk bounds each growth of a read buffer, which grows as bytes
// actually appear: a corrupt length prefix claiming megabytes that never
// arrive must not allocate megabytes up front.
const readChunk = 64 << 10

// readAhead is the buffer a connection's reader starts with: a query,
// a ping or an ack arrives whole in the connection's first Read.
const readAhead = 4 << 10

// parseHeader returns a frame's type and body length. An unassigned
// type byte or a length prefix beyond MaxFrame is rejected before
// anything is read or allocated for a body: a corrupt or adversarial
// header cannot make the reader wait for a payload that will never parse.
func parseHeader(hdr []byte) (MsgType, int, error) {
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	t := MsgType(hdr[4])
	if t == 0 || t > maxMsgType {
		return 0, 0, fmt.Errorf("wire: unknown message type %d", hdr[4])
	}
	return t, int(n), nil
}

// ReadFrame reads one frame and returns its type, body, and total
// bytes consumed. The body is the caller's to keep, and no byte past
// the frame is taken from r: a reader with no buffer has nowhere to
// read ahead into.
func ReadFrame(r io.Reader) (MsgType, []byte, int, error) {
	var fr frameReader
	return fr.next(r)
}

// frameReader takes the frames off one connection. WriteFrame puts a
// frame on the socket in one Write, and next takes it off in one Read:
// it reads into whatever buf has free, header and body together, and
// reads again only while the frame is not whole. Bytes that arrived
// past the frame stay in buf for the next call.
type frameReader struct {
	buf      []byte // all of it is there to read into; it grows to the largest frame seen
	off, end int    // buf[off:end] has arrived and not been returned
}

// newFrameReader is a connection's reader. The zero value reads too,
// growing its buffer to exactly what a frame needs (ReadFrame).
func newFrameReader() frameReader {
	return frameReader{buf: make([]byte, readAhead)}
}

// next returns the next frame's type, body and size on the wire. The
// body is cut from buf and valid until the next call; Decode copies
// everything it keeps.
func (fr *frameReader) next(r io.Reader) (MsgType, []byte, int, error) {
	if fr.off == fr.end {
		fr.off, fr.end = 0, 0
	}
	if err := fr.fill(r, frameHeader); err != nil {
		return 0, nil, 0, err
	}
	t, n, err := parseHeader(fr.buf[fr.off:])
	if err != nil {
		return 0, nil, 0, err
	}
	size := frameHeader + n
	if err := fr.fill(r, size); err != nil {
		return 0, nil, 0, err
	}
	body := fr.buf[fr.off+frameHeader : fr.off+size]
	fr.off += size
	if len(fr.buf) > frameBufMaxCap {
		// Grown for this frame alone, to exactly its size: nothing is
		// left in it, and the body is now its only holder.
		*fr = newFrameReader()
	}
	return t, body, size, nil
}

// fill reads until buf[off:] holds size bytes. A frame that fits buf
// (the common case on a connection) costs no copy and no allocation;
// one that would run off the end is first moved to the front, and one
// larger than buf grows it — to the frame's size, and by at most
// readChunk beyond what has arrived, so a truncated body wastes at
// most one chunk.
func (fr *frameReader) fill(r io.Reader, size int) error {
	if fr.off > 0 && fr.off+size > len(fr.buf) {
		fr.end = copy(fr.buf, fr.buf[fr.off:fr.end])
		fr.off = 0
	}
	for fr.end-fr.off < size {
		if fr.end == len(fr.buf) {
			grown := make([]byte, min(size, fr.end+readChunk))
			copy(grown, fr.buf)
			fr.buf = grown
		}
		m, err := r.Read(fr.buf[fr.end:])
		fr.end += m
		if err != nil && fr.end-fr.off < size {
			if err == io.EOF && fr.end > fr.off {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Decode unmarshals a frame body into dst: the binary layout for a
// *QueryMsg or *ResultMsg, JSON for every other message. Nothing in
// dst aliases body afterwards, and everything in it is freshly
// allocated: dst is the caller's to keep.
func Decode(body []byte, dst any) error {
	var st resultStore // nothing to reuse
	return decodeInto(body, dst, &st)
}

// decodeInto is Decode with a *ResultMsg's slices cut from st, which
// the caller keeps: dst is then valid until st is decoded into again.
func decodeInto(body []byte, dst any, st *resultStore) error {
	var err error
	switch m := dst.(type) {
	case *QueryMsg:
		err = m.decodeBinary(body)
	case *ResultMsg:
		err = m.decodeBinary(body, st)
	default:
		err = json.Unmarshal(body, dst)
	}
	if err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// checkFormat accepts a binary payload's first byte and names what it
// refuses: a '{' is a protocol-1 peer's JSON object.
func checkFormat(body []byte) error {
	switch {
	case len(body) == 0:
		return errMalformed
	case body[0] == formatBinary:
		return nil
	case body[0] == '{':
		return fmt.Errorf("%w: peer sent a protocol 1 (JSON) payload, this build speaks protocol %d (binary) only; rebuild the peer",
			ErrProtocolVersion, formatBinary)
	default:
		return fmt.Errorf("%w: payload format %d, this build speaks protocol %d only",
			ErrProtocolVersion, body[0], formatBinary)
	}
}

// appendStr appends a length-prefixed string.
func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// cursor reads the fields of a binary payload. The first failure
// sticks and empties the cursor: every later read returns zero, so a
// decoder runs straight through and checks done once. Nothing is
// allocated on a count's say-so: count bounds it by the bytes left.
type cursor struct {
	b []byte
	// Where strings are read, either names, which each is looked up in,
	// or s, which is string(b) and each is cut from: one allocation for
	// all.
	names names
	s     string
	off   int
	err   error
}

func (c *cursor) fail() {
	c.err = errMalformed
	c.off = len(c.b)
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

// done reports a payload that failed to parse or was not consumed
// exactly.
func (c *cursor) done() error {
	if c.err != nil || c.off != len(c.b) {
		return errMalformed
	}
	return nil
}

func (c *cursor) byte() byte {
	if c.off >= len(c.b) {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint() int64 {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

// count reads the number of elements that follow, each at least
// `each` bytes on the wire, and fails on one the remaining bytes
// could not hold — so a caller may allocate count elements.
func (c *cursor) count(each int) int {
	v := c.uvarint()
	if v > uint64(c.remaining()/each) {
		c.fail()
		return 0
	}
	return int(v)
}

func (c *cursor) str() string {
	n := c.count(1)
	off := c.off
	c.off += n
	if c.names != nil {
		return c.names.get(c.b[off:c.off])
	}
	return c.s[off:c.off]
}

// floats fills dst, whose length the caller took from count(8·…).
func (c *cursor) floats(dst []float64) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off+8*i:]))
	}
	c.off += 8 * len(dst)
}
