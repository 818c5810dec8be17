package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// rawFrame hand-frames a body, whatever it holds.
func rawFrame(typ byte, body []byte) []byte {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	hdr[4] = typ
	return append(hdr[:], body...)
}

func TestReadFrameRejectsUnknownType(t *testing.T) {
	for _, typ := range []byte{0, byte(maxMsgType) + 1, 200, 255} {
		_, _, _, err := ReadFrame(bytes.NewReader(rawFrame(typ, []byte("{}"))))
		if err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Fatalf("type %d: err = %v, want unknown-type rejection", typ, err)
		}
	}
	// Every type up to the highest assigned one reads, the retired
	// scrape types too: a daemon answers those rather than hanging up.
	for typ := MsgQuery; typ <= maxMsgType; typ++ {
		got, body, n, err := ReadFrame(bytes.NewReader(rawFrame(byte(typ), []byte("{}"))))
		if err != nil || got != typ || string(body) != "{}" || n != 7 {
			t.Fatalf("type %d: got (%v, %q, %d, %v)", typ, got, body, n, err)
		}
	}
}

func TestReadFrameRejectsOversizeLength(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	hdr[4] = byte(MsgQuery)
	_, _, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want oversize rejection", err)
	}
}

func TestReadFrameTruncatedBodyNoOverAllocation(t *testing.T) {
	// A header claiming 8 MB followed by silence must fail without
	// ever holding more than one chunk of garbage: the reader's buffer
	// is what arrived plus at most a chunk, for a connection's reader
	// and for ReadFrame's alike.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 8<<20)
	hdr[4] = byte(MsgQuery)
	payload := append(hdr[:], bytes.Repeat([]byte{'x'}, 3*readChunk/2)...)
	conn := newFrameReader()
	for name, fr := range map[string]*frameReader{"connection": &conn, "ReadFrame": {}} {
		_, _, _, err := fr.next(bytes.NewReader(payload))
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("%s: err = %v, want %v", name, err, io.ErrUnexpectedEOF)
		}
		if len(fr.buf) > len(payload)+readChunk || cap(fr.buf) != len(fr.buf) {
			t.Fatalf("%s: %d bytes arrived and the buffer is %d (cap %d), want at most a chunk (%d) more",
				name, len(payload), len(fr.buf), cap(fr.buf), readChunk)
		}
	}
}

func TestReadFrameLargeBodyRoundTrip(t *testing.T) {
	// A genuine multi-chunk body survives the incremental read intact.
	body := bytes.Repeat([]byte{0xab}, 3*readChunk+17)
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	hdr[4] = byte(MsgResult)
	typ, got, n, err := ReadFrame(bytes.NewReader(append(hdr[:], body...)))
	if err != nil || typ != MsgResult || n != 5+len(body) {
		t.Fatalf("(%v, _, %d, %v)", typ, n, err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("multi-chunk body corrupted in transit")
	}
}

// readFrame is one frame as a reader returned it, or the error that
// ended the stream.
type readFrame struct {
	typ  MsgType
	body string
	n    int
	err  string
}

// readFrames takes frames off a stream until one fails, checking each
// against the bytes it was read from: an assigned type, a body of the
// prefixed length within MaxFrame, a size of header plus body.
func readFrames(t *testing.T, data []byte, next func() (MsgType, []byte, int, error)) []readFrame {
	var seq []readFrame
	for at := 0; ; {
		typ, body, n, err := next()
		if err != nil {
			return append(seq, readFrame{err: err.Error()})
		}
		if typ == 0 || typ > maxMsgType {
			t.Fatalf("accepted unknown type %d", typ)
		}
		if len(body) > MaxFrame || n != frameHeader+len(body) || at+n > len(data) {
			t.Fatalf("consumed %d bytes of %d at %d with a body of %d", n, len(data), at, len(body))
		}
		if want := data[at : at+n]; int(binary.BigEndian.Uint32(want[:4])) != len(body) || !bytes.Equal(want[frameHeader:], body) {
			t.Fatalf("frame at %d: length prefix %d, body %d bytes, equal to the input: %t",
				at, binary.BigEndian.Uint32(want[:4]), len(body), bytes.Equal(want[frameHeader:], body))
		}
		seq = append(seq, readFrame{typ, string(body), n, ""})
		at += n
	}
}

// checkReadFrame is FuzzReadFrame's property for one stream: however
// the bytes are delivered — whole, a byte at a time, half of what is
// asked for — a connection's reader returns the frames ReadFrame
// returns, one exact read after another, and ends on the same error;
// ReadFrame takes nothing past a frame; no buffer outgrows what
// arrived by more than a chunk.
func checkReadFrame(t *testing.T, data []byte) {
	whole := bytes.NewReader(data)
	want := readFrames(t, data, func() (MsgType, []byte, int, error) {
		before := whole.Len()
		typ, body, n, err := ReadFrame(whole)
		if err == nil && before-whole.Len() != n {
			t.Fatalf("ReadFrame took %d bytes for a frame of %d", before-whole.Len(), n)
		}
		return typ, body, n, err
	})
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(data),
		"one byte": iotest.OneByteReader(bytes.NewReader(data)),
		"half":     iotest.HalfReader(bytes.NewReader(data)),
	} {
		fr := newFrameReader()
		got := readFrames(t, data, func() (MsgType, []byte, int, error) {
			defer func() {
				if len(fr.buf) > max(readAhead, len(data)+readChunk) {
					t.Fatalf("%s: a buffer of %d for a stream of %d", name, len(fr.buf), len(data))
				}
			}()
			return fr.next(r)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read %d frames ending in %q, ReadFrame %d ending in %q",
				name, len(got)-1, got[len(got)-1].err, len(want)-1, want[len(want)-1].err)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame readers, alone and
// with a well-formed frame after them (which must then be read, if the
// bytes before it were whole frames): see checkReadFrame. They must
// never panic.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add(rawFrame(byte(MsgQuery), []byte(`{"sql":"select 1"}`)))
	f.Add(rawFrame(byte(MsgPong), []byte(`{}`)))
	f.Add(rawFrame(byte(MsgScrape), []byte(`{"object":"edr/photoobj.ra","trace":"9f3c2a7e01b4d655","min_us":250,"limit":5}`)))
	f.Add(append(rawFrame(byte(MsgPing), nil), rawFrame(byte(MsgPing), []byte(`{}`))...))
	f.Add(rawFrame(0, []byte(`{}`)))
	f.Add(rawFrame(255, []byte(`{}`)))
	f.Add(rawFrame(byte(MsgResult), bytes.Repeat([]byte{'a'}, 2*readChunk)))
	var huge [5]byte
	binary.BigEndian.PutUint32(huge[:4], MaxFrame+1)
	f.Add(huge[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadFrame(t, data)
		checkReadFrame(t, append(data[:len(data):len(data)], rawFrame(byte(MsgPong), []byte(`{}`))...))
	})
}

// TestReadFrameDeliveries runs the fuzz property over its seeds and a
// sample of frame streams cut at every kind of boundary, so tier-1
// exercises partial reads and leftovers without the fuzz engine.
func TestReadFrameDeliveries(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		var stream []byte
		for k := r.Intn(4) + 1; k > 0; k-- {
			size := r.Intn(3 * readAhead)
			if r.Intn(8) == 0 {
				size = readChunk + r.Intn(readChunk)
			}
			body := make([]byte, size)
			r.Read(body)
			stream = append(stream, rawFrame(byte(r.Intn(int(maxMsgType))+1), body)...)
		}
		checkReadFrame(t, stream)
		checkReadFrame(t, stream[:r.Intn(len(stream))])
	}
}

// footprint is the memory a decoded result holds: what its slices can
// address plus its string bytes.
func footprint(m *ResultMsg) int {
	n := cap(m.Tuples)*24 + cap(m.Columns)*16 + cap(m.Decisions)*80 +
		(cap(m.SiteErrors)+cap(m.TransportErrors))*40
	for _, row := range m.Tuples {
		n += cap(row) * 8
	}
	for _, s := range m.Columns {
		n += len(s)
	}
	for _, d := range m.Decisions {
		n += len(d.Object) + len(d.Site) + len(d.Reason)
	}
	for _, e := range append(m.SiteErrors[:len(m.SiteErrors):len(m.SiteErrors)], m.TransportErrors...) {
		n += len(e.Site) + len(e.Error)
	}
	return n
}

// FuzzDecodeResult feeds arbitrary bodies — what ReadFrame accepts
// under a MsgQuery or MsgResult type byte — to the two binary
// decoders. They must never panic; what they accept must hold memory
// within a constant factor of the body (a count is never taken on
// trust), and must encode back to a body that decodes to the same
// message. A Client's way of decoding — slices from a store it keeps,
// strings from the store's names — must accept, refuse and read a body
// as Decode does, the first time and from the names the first time left,
// and hold nothing of the buffer the body arrived in; so must a relay's
// check, which decodes nothing and keeps the tuples and columns as they
// arrived, and what it forwards must be what the decoded result encodes
// to (checkForwarded).
func FuzzDecodeResult(f *testing.F) {
	body := func(t MsgType, payload any) []byte { return encodeFrame(f, t, payload)[frameHeader:] }
	f.Add([]byte{})
	f.Add([]byte{formatBinary})
	f.Add(body(MsgQuery, QueryMsg{SQL: "select ra from photoobj", TraceID: "00000000000000ab"}))
	f.Add(body(MsgResult, &ResultMsg{}))
	f.Add(body(MsgResult, bulkResult(3, 2, true)))
	f.Add(body(MsgResult, &ResultMsg{Columns: []string{"a"}, Tuples: [][]float64{{1}, {}, {2, 3}}, Partial: true,
		Decisions:       []DecisionMsg{{Object: "o", Site: "s", Yield: -1, Decision: "failed", Failed: true, Reason: "r"}},
		SiteErrors:      []SiteErrorMsg{{Site: "s", Error: "e", LostBytes: 9}},
		TransportErrors: []SiteErrorMsg{{Site: "s", Error: "e"}}}))
	// A count of 2³² in a 12-byte body.
	f.Add(append([]byte{formatBinary, 0, 0, 0}, binary.AppendUvarint(nil, 1<<32)...))
	// Protocol 1: the JSON bodies an old peer sends.
	f.Add([]byte(`{"sql":"select 1"}`))
	f.Add([]byte(`{"columns":["photoobj.ra"],"rows":1000,"bytes":8000,"tuples":[[1.5]],"decisions":[{"object":"edr/photoobj.ra","site":"photo.sdss.org","yield":8000,"decision":"bypass"}]}`))

	f.Fuzz(checkDecode)
}

// checkDecode is FuzzDecodeResult's property for one body.
func checkDecode(t *testing.T, data []byte) {
	body := func(typ MsgType, payload any) []byte { return encodeFrame(t, typ, payload)[frameHeader:] }
	var q QueryMsg
	if err := Decode(data, &q); err == nil {
		if held := len(q.SQL) + len(q.TraceID); held > len(data) {
			t.Fatalf("query holds %d bytes of a %d-byte body", held, len(data))
		}
		var again QueryMsg
		if err := Decode(body(MsgQuery, q), &again); err != nil || again != q {
			t.Fatalf("query %+v re-encoded to %+v, %v", q, again, err)
		}
	} else if len(data) > 0 && data[0] == '{' && !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("a JSON query body was refused with %v, not ErrProtocolVersion", err)
	}

	var res ResultMsg
	err := Decode(data, &res)
	st := resultStore{names: names{}}
	for pass := 0; pass < 2; pass++ {
		var kept ResultMsg
		buf := append([]byte(nil), data...)
		if kerr := decodeInto(buf, &kept, &st); (kerr == nil) != (err == nil) {
			t.Fatalf("pass %d: Decode says %v, a Client's store %v", pass, err, kerr)
		}
		for i := range buf {
			buf[i] = 0xff // the next Read overwrites the frame buffer
		}
		if !sameResult(&kept, &res) {
			t.Fatalf("pass %d: Decode reads %+v, a Client's store %+v", pass, res, kept)
		}
	}
	// A relay's check is the same walk keeping nothing but the tuples and
	// columns, undecoded: it accepts exactly what Decode accepts.
	var relay relayed
	buf := append([]byte(nil), data...)
	if rerr := relay.keep(buf); (rerr == nil) != (err == nil) {
		t.Fatalf("Decode says %v, a relay's check %v", err, rerr)
	}
	for i := range buf {
		buf[i] = 0xff // the next Read overwrites the frame buffer
	}
	if err != nil {
		if !reflect.DeepEqual(res, ResultMsg{}) {
			t.Fatalf("a refused body left %+v behind", res)
		}
		if !reflect.DeepEqual(relay, relayed{}) {
			t.Fatalf("a refused body left %+v kept", relay)
		}
		return
	}
	checkForwarded(t, data, &res, &relay)
	// Row headers are the widest thing a byte can buy: 24 bytes for
	// a ragged tuple of width 0, one byte on the wire.
	if held := footprint(&res); held > 24*len(data) {
		t.Fatalf("result holds %d bytes of a %d-byte body", held, len(data))
	}
	var again ResultMsg
	if err := Decode(body(MsgResult, res), &again); err != nil || !sameResult(&res, &again) {
		t.Fatalf("result %+v re-encoded to %+v, %v", res, again, err)
	}
}

// checkForwarded is FuzzDecodeResult's property for a body the relay's
// check accepted into relay, and res, the body decoded: relay holds the
// body's size and, in bytes of its own, its tuples and columns, and these
// forwarded with res's lists and Partial make the frame res makes — byte
// for byte when the body is written as this package writes one, and
// otherwise one that a client reads as res.
func checkForwarded(t *testing.T, data []byte, res *ResultMsg, relay *relayed) {
	body := func(payload any) []byte { return encodeFrame(t, MsgResult, payload)[frameHeader:] }
	if relay.rows != res.Rows || relay.bytes != res.Bytes || len(relay.fwd.b) > len(data) {
		t.Fatalf("kept %d rows, %d bytes and %d bytes of tuples and columns of a %d-byte body that decodes to %d rows and %d bytes",
			relay.rows, relay.bytes, len(relay.fwd.b), len(data), res.Rows, res.Bytes)
	}
	fwd := ResultMsg{
		Rows: relay.rows, Bytes: relay.bytes, fwd: relay.fwd, Partial: res.Partial,
		Decisions: res.Decisions, SiteErrors: res.SiteErrors, TransportErrors: res.TransportErrors,
	}
	fromKept, fromDecoded := body(fwd), body(res)
	if bytes.Equal(fromDecoded, data) && !bytes.Equal(fromKept, fromDecoded) {
		t.Fatalf("forwarded, a body is written\n%x\ndecoded and encoded again\n%x", fromKept, fromDecoded)
	}
	var read ResultMsg
	if err := Decode(fromKept, &read); err != nil || !sameResult(&read, res) {
		t.Fatalf("forwarded, a body reads %+v, %v; decoded, %+v", read, err, res)
	}
}

// TestDecodeMutatedBodies runs the fuzz property over a fixed sample
// of damaged valid bodies — bytes overwritten, cut and spliced — so
// tier-1 exercises the decoders' refusals without the fuzz engine.
func TestDecodeMutatedBodies(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		body := encode(t, MsgResult, randomResult(r))
		if i%4 == 0 {
			body = encode(t, MsgQuery, QueryMsg{SQL: "select ra from photoobj", TraceID: "00000000000000ab"})
		}
		for j := 0; j < 10; j++ {
			b := append([]byte(nil), body...)
			for k := r.Intn(3) + 1; k > 0; k-- {
				switch at := r.Intn(len(b)); r.Intn(4) {
				case 0:
					b[at] = byte(r.Intn(256))
				case 1:
					b[at] ^= 1 << r.Intn(8)
				case 2:
					b = b[:at+1]
				default:
					b = append(b[:at:at], body[r.Intn(len(body)):]...)
				}
			}
			checkDecode(t, b)
		}
	}
}
