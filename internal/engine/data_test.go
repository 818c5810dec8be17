package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
	"time"

	"bypassyield/internal/catalog"
)

// TestReleaseIsPinned checks every synthesized value of both releases,
// at the benchmark's sample and at a sparser one under another seed,
// against digests computed before Open synthesized its columns in
// parallel: a change to synthesis, its RNG draws or its order of work
// that moves one bit of one column moves one of these. It also checks
// that Open leaves no goroutine behind.
func TestReleaseIsPinned(t *testing.T) {
	for _, c := range []struct {
		release string
		cfg     Config
		want    string
	}{
		{"edr", Config{SampleEvery: 1000, Seed: 1}, "da1be566be8f029e"},
		{"dr1", Config{SampleEvery: 1000, Seed: 1}, "71b6dbe1696de1f6"},
		{"edr", Config{SampleEvery: 100000, Seed: 7}, "c73ee2c70d82405c"},
		{"dr1", Config{SampleEvery: 100000, Seed: 7}, "f52eb4f85b5c1bf8"},
	} {
		s, err := catalog.Release(c.release)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		db, err := Open(s, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := releaseDigest(db); got != c.want {
			t.Errorf("%s %+v: release digest %s, pinned %s", c.release, c.cfg, got, c.want)
		}
		// A worker that has sent its last column may not have returned
		// yet; give it a moment before calling it left behind.
		for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s %+v: %d goroutines after Open, %d before", c.release, c.cfg, n, base)
		}
	}
}

// releaseDigest is the sha256 prefix of every column's float bits,
// little-endian, table after table and column after column in schema
// order.
func releaseDigest(db *DB) string {
	h := sha256.New()
	var num [8]byte
	for i := range db.tables {
		for _, col := range db.tables[i].cols {
			for _, v := range col {
				binary.LittleEndian.PutUint64(num[:], math.Float64bits(v))
				h.Write(num[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
