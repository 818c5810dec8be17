package engine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bypassyield/internal/sqlparse"
)

// specialValues are the doubles where an ordered compare, a range's
// ends or a strict literal's Nextafter could go wrong: two NaNs (a
// quiet one and one with a payload), ±Inf, ±0, the smallest subnormals,
// ±MaxFloat64, and 1 with its neighbours.
var specialValues = []float64{
	math.NaN(), math.Float64frombits(0x7ff4_0000_0000_0abc),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1, math.Nextafter(1, 2), math.Nextafter(1, 0), -1,
}

// betweenRows is the between arm by definition: the rows with
// lo <= v <= hi, in order.
func betweenRows(left []float64, lo, hi float64) []int32 {
	var rows []int32
	for i, v := range left {
		if v >= lo && v <= hi {
			rows = append(rows, int32(i))
		}
	}
	return rows
}

// filterBothWays runs p's first predicate pass on each of its paths
// (FilterPaths) into a dst of one entry per row followed by four
// canaries, and fails unless both return the rows want and leave the
// canaries as they were.
func filterBothWays(t *testing.T, p pred, want []int32) {
	t.Helper()
	const canary = -0x5a5a5a5b
	n := len(p.left)
	FilterPaths(func(path string) {
		dst := make([]int32, n+4)
		for i := range dst {
			dst[i] = canary
		}
		q := p
		k := q.filterTable(dst[:n])
		if !slices.Equal(dst[:k], want) {
			t.Fatalf("%s: %d rows, [%v, %v]: %d rows %v, want %d %v", path, n, p.lo, p.hi, k, dst[:k], len(want), want)
		}
		if c := dst[n:]; !slices.Equal(c, []int32{canary, canary, canary, canary}) {
			t.Fatalf("%s: %d rows, [%v, %v]: wrote past the table: %v", path, n, p.lo, p.hi, c)
		}
	})
}

// TestFilterKernelMatchesLoop holds the between arm's AVX2 kernel to the
// Go loop: every table of 0–70 rows (every remainder past the kernel's
// blocks of four, and tables without one) and EDR's frame, photoobj,
// neighbors and mask at one row in 1000, over seeded columns that mix
// ordinary values with the special ones, bounds drawn from the same
// values, lo > hi included.
func TestFilterKernelMatchesLoop(t *testing.T) {
	if !haveAVX2 {
		t.Log("no AVX2 on this CPU: the Go loop alone is checked")
	}
	r := rand.New(rand.NewSource(63))
	ordinary := []float64{-100, -2.5, 0.25, 3, 12.75, 99}
	draw := func() float64 {
		switch r.Intn(4) {
		case 0:
			return specialValues[r.Intn(len(specialValues))]
		case 1:
			return ordinary[r.Intn(len(ordinary))]
		default:
			return r.Float64()*200 - 100
		}
	}
	lengths := []int{770, 880, 2200, 3080}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		left := make([]float64, n)
		for i := range left {
			left[i] = draw()
		}
		for range 40 {
			lo, hi := draw(), draw()
			filterBothWays(t, pred{left: left, op: opBetween, lo: lo, hi: hi}, betweenRows(left, lo, hi))
		}
	}
}

// FuzzFilterTable is TestFilterKernelMatchesLoop on fuzzed bytes: every
// eight of them a row's bits. `go test` runs the seeds; `make
// fuzz-smoke` explores further.
func FuzzFilterTable(f *testing.F) {
	var seed []byte
	for _, v := range specialValues {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, 0.0, 1.0)
	f.Add(seed, math.Inf(-1), math.Inf(1))
	f.Add(seed[:8*7], math.Copysign(0, -1), math.SmallestNonzeroFloat64)
	f.Add(seed[:8*5], 1.0, -1.0)
	f.Fuzz(func(t *testing.T, data []byte, lo, hi float64) {
		left := make([]float64, len(data)/8)
		for i := range left {
			left[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		filterBothWays(t, pred{left: left, op: opBetween, lo: lo, hi: hi}, betweenRows(left, lo, hi))
	})
}

// TestLiteralRangesAreExact: DB.pred turns every literal <, <=, =, >=
// and > into one closed range, and for each literal c and value v of
// the special set that range must select v exactly when Go's comparison
// does: the first predicate pass over a column of those values returns
// those rows, on both of its paths.
func TestLiteralRangesAreExact(t *testing.T) {
	db := mustOpen(t, smallSchema(), Config{SampleEvery: 1, Seed: 1})
	b, err := Bind(db.schema, mustParse(t, "select x from t where x < 1"))
	if err != nil {
		t.Fatal(err)
	}
	cond := &b.Conds[0]
	for _, tc := range []struct {
		op sqlparse.CompareOp
		is func(v, c float64) bool
	}{
		{sqlparse.OpLt, func(v, c float64) bool { return v < c }},
		{sqlparse.OpLe, func(v, c float64) bool { return v <= c }},
		{sqlparse.OpEq, func(v, c float64) bool { return v == c }},
		{sqlparse.OpGe, func(v, c float64) bool { return v >= c }},
		{sqlparse.OpGt, func(v, c float64) bool { return v > c }},
	} {
		for _, c := range specialValues {
			cond.Cond.Op, cond.Cond.Value = tc.op, c
			p := db.pred(b, cond)
			if p.op != opBetween {
				t.Fatalf("x %s %v: op %d, not a closed range", tc.op, c, p.op)
			}
			var want []int32
			for i, v := range specialValues {
				if tc.is(v, c) {
					want = append(want, int32(i))
				}
			}
			p.left = specialValues
			filterBothWays(t, p, want)
		}
	}
}
