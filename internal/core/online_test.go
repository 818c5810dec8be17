package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// recordingCacher wraps an ObjectCacher and records the sequence of
// objects presented to it, for equivalence tests against the grouped
// sequence of Lemma 5.1.
type recordingCacher struct {
	ObjectCacher
	requests []ObjectID
}

func (r *recordingCacher) Request(obj Object) ObjAction {
	r.requests = append(r.requests, obj.ID)
	return r.ObjectCacher.Request(obj)
}

func TestOnlineBYSkiRentalAccumulation(t *testing.T) {
	a := testObj("a", 100)
	ob := NewOnlineBY(NewLandlord(100))
	// Yield 50: BYU = 0.5 < 1 → bypass.
	if d := ob.Access(1, a, 50); d != Bypass {
		t.Fatalf("t=1 decision = %v, want bypass", d)
	}
	if got := ob.AccumulatedYield(a.ID); got != 50 {
		t.Fatalf("accumulator = %v, want 50", got)
	}
	// Second yield 50: BYU crosses 1 → request to A_obj → load.
	if d := ob.Access(2, a, 50); d != Load {
		t.Fatalf("t=2 decision = %v, want load", d)
	}
	if got := ob.AccumulatedYield(a.ID); got != 0 {
		t.Fatalf("accumulator after crossing = %v, want 0", got)
	}
	// Cached now → hit, BYU keeps accumulating.
	if d := ob.Access(3, a, 30); d != Hit {
		t.Fatalf("t=3 decision = %v, want hit", d)
	}
	if got := ob.AccumulatedYield(a.ID); got != 30 {
		t.Fatalf("accumulator = %v, want 30", got)
	}
}

func TestOnlineBYAccumulatorInvariant(t *testing.T) {
	// Property: after every access the accumulator lies in [0, 1).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		objs := []Object{testObj("a", 100), testObj("b", 250), testObj("c", 40)}
		ob := NewOnlineBY(NewLandlord(300))
		for i := int64(1); i <= 500; i++ {
			o := objs[r.Intn(len(objs))]
			y := int64(r.Float64() * 3 * float64(o.Size)) // yields may exceed size
			ob.Access(i, o, y)
			for _, cand := range objs {
				acc := ob.AccumulatedYield(cand.ID)
				if acc < 0 || acc >= cand.Size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineBYMatchesGroupedSequence(t *testing.T) {
	// The object requests OnlineBY generates must be exactly
	// object(σ) from the grouping analysis (Lemma 5.1): the reduction
	// is definitional.
	r := rand.New(rand.NewSource(13))
	objs := []Object{testObj("a", 100), testObj("b", 300), testObj("c", 64)}
	trace := randomTrace(r, objs, 800, 2.0) // yields up to 2× size
	rec := &recordingCacher{ObjectCacher: NewLandlord(400)}
	ob := NewOnlineBY(rec)
	for _, req := range trace {
		for _, acc := range req.Accesses {
			ob.Access(req.Seq, objs[indexOf(objs, acc.Object)], acc.Yield)
		}
	}
	grouped := GroupSequence(trace, objMap(objs...))
	want := grouped.ObjectSequence()
	if len(rec.requests) != len(want) {
		t.Fatalf("OnlineBY made %d object requests, grouping predicts %d",
			len(rec.requests), len(want))
	}
	for i := range want {
		if rec.requests[i] != want[i] {
			t.Fatalf("request %d = %s, grouping predicts %s", i, rec.requests[i], want[i])
		}
	}
}

func TestOnlineBYWithFullYieldLoadsImmediatelyOnSecond(t *testing.T) {
	// Yields equal to the object size: every access crosses the
	// accumulator, so the object-model behaviour (no partial yields)
	// is recovered exactly.
	a := testObj("a", 100)
	ob := NewOnlineBY(NewLandlord(100))
	if d := ob.Access(1, a, 100); d != Load {
		t.Fatalf("full-yield first access = %v, want load (A_obj fetches on request)", d)
	}
	if d := ob.Access(2, a, 100); d != Hit {
		t.Fatalf("second access = %v, want hit", d)
	}
}

// TestOnlineBYCrossingDeclined: a yield that brings the accumulator to
// exactly the object's size crosses it, so when A_obj cannot hold the
// object the bypass says A_obj declined it, not that it is still
// accumulating.
func TestOnlineBYCrossingDeclined(t *testing.T) {
	ob := NewOnlineBY(NewLandlord(50))
	if d := ob.Access(1, testObj("a", 100), 100); d != Bypass {
		t.Fatalf("access = %v, want bypass", d)
	}
	if r := ob.LastExplain().Reason; r != ReasonAObjDeclined {
		t.Fatalf("reason %s, want %s", r, ReasonAObjDeclined)
	}
}

func TestOnlineBYZeroYield(t *testing.T) {
	a := testObj("a", 100)
	ob := NewOnlineBY(NewLandlord(100))
	for i := int64(1); i <= 20; i++ {
		if d := ob.Access(i, a, 0); d != Bypass {
			t.Fatalf("zero-yield access = %v, want bypass", d)
		}
	}
	if ob.AccumulatedYield(a.ID) != 0 {
		t.Fatal("zero yields must not accumulate")
	}
}

func TestOnlineBYOversizedObjectNeverCached(t *testing.T) {
	big := testObj("big", 1000)
	ob := NewOnlineBY(NewLandlord(100))
	for i := int64(1); i <= 50; i++ {
		if d := ob.Access(i, big, 900); d != Bypass {
			t.Fatalf("oversized access = %v, want bypass", d)
		}
	}
	if ob.Used() != 0 {
		t.Fatal("oversized object cached")
	}
}

func TestOnlineBYCompetitiveOnAdversarialTrace(t *testing.T) {
	// Empirical competitiveness check: on random traces OnlineBY's
	// total WAN cost must stay within a moderate constant of the
	// static-optimal cost plus the dropped-query cost (a lower bound
	// on OPT_yield is not computed exactly; static-optimal is our
	// stand-in). The theory gives O(lg²k); we assert a loose factor.
	r := rand.New(rand.NewSource(99))
	objs := []Object{
		testObj("a", 100), testObj("b", 200), testObj("c", 50), testObj("d", 400),
	}
	trace := randomTrace(r, objs, 4000, 1.0)
	m := objMap(objs...)

	runCost := func(p Policy) int64 {
		sim := &Simulator{Policy: p, Objects: m}
		res, err := sim.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res.Acct.WANBytes()
	}
	onlineCost := runCost(NewOnlineBY(NewLandlord(500)))
	staticCost := runCost(PlanStatic(500, trace, m))
	if staticCost == 0 {
		t.Skip("degenerate trace")
	}
	if float64(onlineCost) > 25*float64(staticCost) {
		t.Fatalf("online cost %d is more than 25x static-optimal %d", onlineCost, staticCost)
	}
}

func TestSpaceEffBYProbabilityOne(t *testing.T) {
	// Yield == size → probability 1 → behaves like the object model:
	// first access loads... but rng.Float64() < 1.0 is always true, so
	// the object is always presented.
	a := testObj("a", 100)
	se := NewSpaceEffBY(NewLandlord(100), rand.NewSource(1))
	if d := se.Access(1, a, 100); d != Load {
		t.Fatalf("first full-yield access = %v, want load", d)
	}
	if d := se.Access(2, a, 100); d != Hit {
		t.Fatalf("second access = %v, want hit", d)
	}
}

func TestSpaceEffBYProbabilityZero(t *testing.T) {
	a := testObj("a", 100)
	se := NewSpaceEffBY(NewLandlord(100), rand.NewSource(1))
	for i := int64(1); i <= 50; i++ {
		if d := se.Access(i, a, 0); d != Bypass {
			t.Fatalf("zero-yield access = %v, want bypass", d)
		}
	}
	if se.Used() != 0 {
		t.Fatal("zero-probability accesses must never load")
	}
}

func TestSpaceEffBYDeterministicWithSeed(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	objs := []Object{testObj("a", 100), testObj("b", 300)}
	trace := randomTrace(r, objs, 1000, 1.0)
	m := objMap(objs...)
	run := func() Accounting {
		p := NewSpaceEffBY(NewLandlord(200), rand.NewSource(55))
		sim := &Simulator{Policy: p, Objects: m}
		res, err := sim.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res.Acct
	}
	if run() != run() {
		t.Fatal("same seed must reproduce identical runs")
	}
}

func TestSpaceEffBYExpectedPresentationRate(t *testing.T) {
	// Over many accesses with yield = s/4, roughly a quarter of
	// accesses present the object to A_obj. We count loads+hits as a
	// proxy: with capacity ≥ size, the first presentation loads and
	// the object stays; so instead count via a recordingCacher.
	a := testObj("a", 1000)
	rec := &recordingCacher{ObjectCacher: NewLandlord(1000)}
	se := NewSpaceEffBY(rec, rand.NewSource(8))
	const n = 10000
	for i := int64(1); i <= n; i++ {
		se.Access(i, a, 250)
	}
	got := float64(len(rec.requests)) / n
	if got < 0.22 || got > 0.28 {
		t.Fatalf("presentation rate = %v, want ≈ 0.25", got)
	}
}
