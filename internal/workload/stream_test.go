package workload

import (
	"math"
	"math/rand"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/trace"
)

func testStreamProfile(seed int64) Profile {
	return Profile{Name: "stream", Schema: catalog.EDR(), Queries: 1, Seed: seed}
}

// TestStreamDeterministic: same seed ⇒ identical statement sequence;
// different seed ⇒ a different one.
func TestStreamDeterministic(t *testing.T) {
	a, err := NewStream(testStreamProfile(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(testStreamProfile(7))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewStream(testStreamProfile(8))
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := 0; i < 200; i++ {
		sa, sb, sc := a.Next(), b.Next(), c.Next()
		if sa != sb {
			t.Fatalf("statement %d diverged under one seed:\n  %q\n  %q", i, sa.SQL, sb.SQL)
		}
		if sa != sc {
			differs = true
		}
	}
	if !differs {
		t.Fatal("200 statements identical across different seeds")
	}
}

// TestStreamStatementsBindable: every streamed statement parses and
// binds against the release schema — the property that lets `by synth`
// fire them at a live proxy without a dry run.
func TestStreamStatementsBindable(t *testing.T) {
	s, err := NewStream(testStreamProfile(3))
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]int{}
	for i := 0; i < 500; i++ {
		st := s.Next()
		classes[st.Class]++
		stmt, err := sqlparse.Parse(st.SQL)
		if err != nil {
			t.Fatalf("statement %d does not re-parse: %v\n%s", i, err, st.SQL)
		}
		if _, err := engine.Bind(s.Schema(), stmt); err != nil {
			t.Fatalf("statement %d does not bind: %v\n%s", i, err, st.SQL)
		}
		if st.Class == trace.ClassLog {
			t.Fatalf("stream emitted a log-self query: %s", st.SQL)
		}
	}
	for _, want := range []string{ClassRange, ClassSpatial, ClassIdentity, ClassJoin} {
		if classes[want] == 0 {
			t.Errorf("500 statements produced no %s queries (mix: %v)", want, classes)
		}
	}
}

// TestStreamNoLogQueries: profiles carrying LogQueries still never
// stream them.
func TestStreamNoLogQueries(t *testing.T) {
	p := testStreamProfile(5)
	p.LogQueries = 50
	s, err := NewStream(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if st := s.Next(); st.Class == trace.ClassLog {
			t.Fatalf("streamed a log query: %s", st.SQL)
		}
	}
}

// pointMix is the benchmark's point-bypass class mix.
var pointMix = Mix{Identity: .5, Spatial: .3, Aggregate: .2}

// BenchmarkStreamNext draws statements as the benchmark does before a
// timed run: one op is one Stream.Next, under the EDR profile with its
// default mix and with the point mix.
func BenchmarkStreamNext(b *testing.B) {
	for _, c := range []struct {
		name string
		mix  Mix
	}{{"edr", Mix{}}, {"point", pointMix}} {
		b.Run(c.name, func(b *testing.B) {
			p := EDRProfile()
			p.Mix = c.mix
			s, err := NewStream(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Next()
			}
		})
	}
}

// TestStreamNextAllocs: a drawn statement costs its AST, its lists and
// its text, not a formatter's scratch or a lookup map (5 allocations
// per statement when this gate was set).
func TestStreamNextAllocs(t *testing.T) {
	s, err := NewStream(EDRProfile())
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(2000, func() { s.Next() }); got > 6 {
		t.Fatalf("Stream.Next allocates %.1f times per statement, want ≤ 6", got)
	}
}

// TestZipfSkew: a larger ZipfS concentrates pool picks on the
// top-ranked entries.
func TestZipfSkew(t *testing.T) {
	top := func(s float64) int {
		g := &gen{p: Profile{ZipfS: s}, rng: rand.New(rand.NewSource(1))}
		n := 0
		for i := 0; i < 5000; i++ {
			if g.zipfPick(10) == 0 {
				n++
			}
		}
		return n
	}
	mild, heavy := top(0.9), top(2.0)
	if heavy <= mild {
		t.Fatalf("zipf s=2.0 picked rank 0 %d times, s=0.9 %d times; want heavier skew", heavy, mild)
	}
	// ZipfS == 0 must keep the historical default (0.9 exponent): the
	// paper profiles' streams cannot change under a zero value.
	if d := top(0) - top(0.9); d != 0 {
		t.Fatalf("ZipfS=0 and ZipfS=0.9 diverge by %d picks; zero must mean the 0.9 default", d)
	}
}

// TestZipfPickMatchesDirectSum: the kept weights pick what summing
// 1/(i+1)^s afresh for every pick does, for the exponents `by synth`'s
// tenants use and for pool lengths that grow the table out of order.
func TestZipfPickMatchesDirectSum(t *testing.T) {
	direct := func(rng *rand.Rand, n int, s float64) int {
		if n <= 1 {
			return 0
		}
		var total float64
		for i := 0; i < n; i++ {
			total += 1 / math.Pow(float64(i+1), s)
		}
		r := rng.Float64() * total
		for i := 0; i < n; i++ {
			r -= 1 / math.Pow(float64(i+1), s)
			if r <= 0 {
				return i
			}
		}
		return n - 1
	}
	for _, s := range []float64{0.9, 1.1, 1.4, 2} {
		g := &gen{p: Profile{ZipfS: s}, rng: rand.New(rand.NewSource(4))}
		ref := rand.New(rand.NewSource(4))
		for i := 0; i < 5000; i++ {
			n := []int{6, 1, 12, 3, 20, 9}[i%6]
			if got, want := g.zipfPick(n), direct(ref, n, s); got != want {
				t.Fatalf("s=%v pick %d of %d: kept weights chose %d, a direct sum %d", s, i, n, got, want)
			}
		}
	}
}

// TestSizeShapeValidation rejects malformed distributions and accepts
// the two supported families.
func TestSizeShapeValidation(t *testing.T) {
	bad := []*SizeShape{
		{Dist: "uniform"},
		{Dist: "pareto", Alpha: 0},
		{Dist: "pareto", Alpha: -1},
		{Dist: "pareto", Alpha: 1.2, Min: -0.5},
		{Dist: "lognormal", Sigma: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("SizeShape %+v validated, want error", s)
		}
	}
	good := []*SizeShape{
		nil,
		{Dist: "lognormal", Mu: 0, Sigma: 1.5},
		{Dist: "pareto", Alpha: 1.3, Min: 0.2},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("SizeShape %+v rejected: %v", s, err)
		}
	}
}

// TestSizeShapeSampling: draws stay within the clamp and a lognormal
// with a big sigma actually produces a heavy tail.
func TestSizeShapeSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := &SizeShape{Dist: "lognormal", Mu: 0, Sigma: 1.8}
	var over1, total float64
	for i := 0; i < 10000; i++ {
		v := s.sample(rng)
		if v < 0 || v > 8 {
			t.Fatalf("sample %v outside [0, 8]", v)
		}
		if v > 4 {
			over1++
		}
		total++
	}
	if over1 == 0 {
		t.Fatal("lognormal(0, 1.8) never exceeded 4×: tail missing")
	}
	p := &SizeShape{Dist: "pareto", Alpha: 1.1, Min: 0.3, MaxFactor: 16}
	for i := 0; i < 10000; i++ {
		if v := p.sample(rng); v < 0.3-1e-9 || v > 16 {
			t.Fatalf("pareto sample %v outside [0.3, 16]", v)
		}
	}
	var nilShape *SizeShape
	if v := nilShape.sample(rng); v != 1 {
		t.Fatalf("nil shape sample = %v, want 1", v)
	}
}

// TestGenerateUnchangedWithoutShaping: the new knobs at their zero
// values leave Generate's output stream untouched — the paper traces
// (and their calibrations) cannot drift under this PR.
func TestGenerateUnchangedWithoutShaping(t *testing.T) {
	p := Profile{Name: "guard", Schema: catalog.EDR(), Queries: 60, Seed: 99}
	base, err := Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(again) {
		t.Fatalf("lengths differ: %d vs %d", len(base), len(again))
	}
	for i := range base {
		if base[i].SQL != again[i].SQL || base[i].Yield != again[i].Yield {
			t.Fatalf("record %d differs across runs", i)
		}
	}

	// Shaping changes the stream (it consumes extra randomness).
	p.SizeShape = &SizeShape{Dist: "pareto", Alpha: 1.2, Min: 0.3}
	shaped, err := Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range base {
		if base[i].SQL != shaped[i].SQL {
			same = false
			break
		}
	}
	if same {
		t.Fatal("SizeShape had no effect on the generated stream")
	}
}
