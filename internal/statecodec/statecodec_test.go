package statecodec

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestRoundTrip reads back every primitive as written, and the bytes
// are the documented encodings.
func TestRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(7)
	e.I64(-3)
	e.U64(300)
	e.F64(math.Pi)
	e.Str("edr/frame")
	e.Blob([]byte{1, 2})
	e.Bool(true)
	e.Bool(false)
	want := []byte{7, 5, 0xac, 0x02}
	want = append(want, 0x18, 0x2d, 0x44, 0x54, 0xfb, 0x21, 0x09, 0x40)
	want = append(want, 9)
	want = append(want, "edr/frame"...)
	want = append(want, 2, 1, 2, 1, 0)
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("encoded %x, want %x", e.Bytes(), want)
	}

	d := NewDecoder(e.Bytes())
	if v := d.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := d.I64(); v != -3 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.U64(); v != 300 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if v := d.Str(); v != "edr/frame" {
		t.Fatalf("Str = %q", v)
	}
	if v := d.Blob(); !bytes.Equal(v, []byte{1, 2}) {
		t.Fatalf("Blob = %x", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool did not read true, false")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderRefuses: trailing bytes, a wrong version, and lengths past
// the end are errors, and the first error latches: the readers after it
// return zero values and Done reports it.
func TestDecoderRefuses(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.U8()
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("trailing byte: %v", err)
	}

	d = NewDecoder([]byte{2})
	d.Version(1, "lru")
	if err := d.Done(); err == nil || err.Error() != "lru state version 2, want 1" {
		t.Fatalf("version: %v", err)
	}

	for name, read := range map[string]func(d *Decoder){
		"Str":   func(d *Decoder) { d.Str() },
		"Blob":  func(d *Decoder) { d.Blob() },
		"Count": func(d *Decoder) { d.Count() },
	} {
		d = NewDecoder([]byte{0xff, 0xff, 0x03, 'x'}) // a length of 65535
		read(&d)
		if d.Err() == nil || !strings.Contains(d.Err().Error(), "exceeds remaining 1 bytes") {
			t.Fatalf("%s of a hostile length: %v", name, d.Err())
		}
		if d.U8() != 0 || d.I64() != 0 || d.F64() != 0 || d.Str() != "" || d.Count() != 0 {
			t.Fatalf("%s: a reader after the failure returned a value", name)
		}
		if err := d.Done(); err != d.Err() {
			t.Fatalf("%s: Done = %v, want the latched %v", name, err, d.Err())
		}
	}

	d = NewDecoder([]byte{0x80})
	if d.F64(); d.Err() == nil {
		t.Fatal("F64 of one byte succeeded")
	}
}
