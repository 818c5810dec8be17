package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"bypassyield/internal/federation"
)

// The statement population the benchmark draws and the paper's traces
// are built from, pinned: a change to the generator, its RNG draws or
// the SQL printer that moves one byte of it moves one of these. The
// benchmark's exact WAN bytes on its table-replay workload hang on the
// same population.
const (
	pinStreamEDR   = "bdbe470f6d639571" // 12 000 statements, EDR default mix
	pinStreamPoint = "4d4f9f4dcde073d4" // 12 000 statements, the bench's point mix
	pinGenerateEDR = "3a4ea0e4af46b6dd" // Generate(EDR/100, Columns)
)

// streamDigest is the sha256 prefix of the first n statements of p's
// stream, each followed by a zero byte: what the benchmark hashes.
func streamDigest(t testing.TB, p Profile, n int) string {
	s, err := NewStream(p)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		h.Write([]byte(s.Next().SQL))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestStreamPopulationIsPinned checks the streamed statements of both
// benchmark mixes and a generated EDR trace against digests computed
// before the generator's fast paths existed.
func TestStreamPopulationIsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("draws 24 000 statements and a 1/100 EDR trace")
	}
	if got := streamDigest(t, EDRProfile(), 12000); got != pinStreamEDR {
		t.Errorf("EDR stream digest %s, pinned %s", got, pinStreamEDR)
	}
	point := EDRProfile()
	point.Mix = pointMix
	if got := streamDigest(t, point, 12000); got != pinStreamPoint {
		t.Errorf("point-mix stream digest %s, pinned %s", got, pinStreamPoint)
	}

	recs, err := Generate(ScaledProfile(EDRProfile(), 100), federation.Columns)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var num [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(num[:], uint64(v))
		h.Write(num[:])
	}
	putStr := func(s string) {
		putInt(int64(len(s)))
		h.Write([]byte(s))
	}
	for _, r := range recs {
		putInt(r.Seq)
		putStr(r.SQL)
		putStr(r.Class)
		putInt(r.Yield)
		putInt(int64(len(r.Accesses)))
		for _, a := range r.Accesses {
			putStr(a.Object)
			putInt(a.Yield)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != pinGenerateEDR {
		t.Errorf("Generate(EDR/100, columns) digest %s, pinned %s", got, pinGenerateEDR)
	}
}
