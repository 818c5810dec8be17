package sqlparse

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendNumMatchesFormatFloat holds appendNum's path for k/10⁴ to
// strconv's shortest 'g' form, which every other value is printed in:
// over a seeded sweep of k/10⁴ for |k| up to 10¹⁰ (the path's bound)
// and the doubles next to them, which are not k/10⁴; over the edges of
// the path, and the values it must leave to strconv; and over every
// integer up to 880 000, the identifiers the generator prints.
func TestAppendNumMatchesFormatFloat(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		got := string(appendNum([]byte("x"), v))
		if want := string(strconv.AppendFloat([]byte("x"), v, 'g', -1, 64)); got != want {
			t.Fatalf("appendNum(%v) [bits %#x] = %q, strconv %q", v, math.Float64bits(v), got, want)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		bound := int64(1e9)
		if i%4 == 0 {
			bound = 1e10
		}
		v := float64(r.Int63n(2*bound+1)-bound) / 1e4
		check(v)
		check(math.Nextafter(v, math.Inf(1)))
		check(math.Nextafter(v, math.Inf(-1)))
	}
	for _, v := range []float64{
		0.0001, -0.0001, 0.001, 0.1, 1, -1, 99999.9999, -99999.9999, 100000, -100000,
		999999.9999, -999999.9999, 1e6, -1e6, 1e-5, -1e-5, 0.00005, 0.1 + 0.2, 1.5e300,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
		math.Float64frombits(0x7ff0000000000001), math.SmallestNonzeroFloat64, math.MaxFloat64,
		float64(1<<53) / 1e4, 123456.7891, 0.30000000000000004, 2.5e-5,
	} {
		check(v)
	}
	for i := 0; i <= 880000; i++ {
		check(float64(i))
	}
}
