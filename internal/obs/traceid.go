package obs

import (
	"crypto/rand"
	"encoding/binary"
	"strconv"
	"sync/atomic"
	"time"
)

// idState walks a full-period Weyl sequence (odd increment) from a
// per-process random base, so ids are unique within a process and
// collide across processes only with ~2^-64 probability per pair.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

// NewID mints a nonzero process-unique 64-bit id. Lock-free and
// allocation-free: safe on hot paths.
func NewID() uint64 {
	for {
		if id := idState.Add(0x9E3779B97F4A7C15); id != 0 {
			return id
		}
	}
}

// FormatID encodes an id as 16 lowercase hex digits; zero (no id)
// encodes as "".
func FormatID(id uint64) string {
	if id == 0 {
		return ""
	}
	var buf [16]byte
	const hex = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		buf[i] = hex[id&0xF]
		id >>= 4
	}
	return string(buf[:])
}

// ParseID decodes FormatID's output; malformed or empty input yields 0
// (untraced), never an error — a corrupt trace id must not fail the
// request it rode in on.
func ParseID(s string) uint64 {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return v
}
