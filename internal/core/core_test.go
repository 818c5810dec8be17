package core

import (
	"math/rand"
	"testing"
)

// testObj builds an object with fetch cost equal to size (the uniform
// network case f_i = s_i).
func testObj(id string, size int64) Object {
	return Object{ID: ObjectID(id), Size: size, FetchCost: size, Site: "site-a"}
}

// testObjCost builds an object with an explicit fetch cost.
func testObjCost(id string, size, fetch int64) Object {
	return Object{ID: ObjectID(id), Size: size, FetchCost: fetch, Site: "site-a"}
}

// objMap indexes objects by ID.
func objMap(objs ...Object) map[ObjectID]Object {
	m := make(map[ObjectID]Object, len(objs))
	for _, o := range objs {
		m[o.ID] = o
	}
	return m
}

// singleAccessTrace builds one request per (object, yield) pair with
// sequence numbers 1..n.
func singleAccessTrace(accs ...Access) []Request {
	reqs := make([]Request, len(accs))
	for i, a := range accs {
		reqs[i] = Request{Seq: int64(i + 1), Accesses: []Access{a}}
	}
	return reqs
}

// randomTrace builds a reproducible random single-access trace over
// the given objects with yields in [0, maxYieldFrac·size].
func randomTrace(r *rand.Rand, objs []Object, n int, maxYieldFrac float64) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		o := objs[r.Intn(len(objs))]
		y := int64(r.Float64() * maxYieldFrac * float64(o.Size))
		reqs[i] = Request{Seq: int64(i + 1), Accesses: []Access{{Object: o.ID, Yield: y}}}
	}
	return reqs
}

func TestObjectValidate(t *testing.T) {
	cases := []struct {
		name    string
		obj     Object
		wantErr bool
	}{
		{"valid", testObj("a", 10), false},
		{"empty id", Object{Size: 1, FetchCost: 1}, true},
		{"zero size", Object{ID: "a", Size: 0, FetchCost: 1}, true},
		{"negative size", Object{ID: "a", Size: -5, FetchCost: 1}, true},
		{"zero fetch", Object{ID: "a", Size: 1, FetchCost: 0}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.obj.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestBypassCostUniform(t *testing.T) {
	o := testObj("a", 100)
	if got := o.BypassCost(37); got != 37 {
		t.Fatalf("BypassCost = %d, want 37 (uniform network: cost equals yield)", got)
	}
}

func TestBypassCostScaled(t *testing.T) {
	// Fetch cost 3x size: bypass cost is yield scaled by 3.
	o := testObjCost("a", 100, 300)
	if got := o.BypassCost(50); got != 150 {
		t.Fatalf("BypassCost = %d, want 150", got)
	}
	if got := o.BypassCost(0); got != 0 {
		t.Fatalf("BypassCost(0) = %d, want 0", got)
	}
}

func TestDecisionString(t *testing.T) {
	if Hit.String() != "hit" || Bypass.String() != "bypass" || Load.String() != "load" {
		t.Fatal("Decision names wrong")
	}
	if Decision(9).String() == "" {
		t.Fatal("unknown decision should still format")
	}
}

func TestAccountingDerived(t *testing.T) {
	a := Accounting{
		Accesses:    10,
		Hits:        4,
		BypassBytes: 60,
		FetchBytes:  100,
		CacheBytes:  40,
		YieldBytes:  100,
	}
	if got := a.WANBytes(); got != 160 {
		t.Fatalf("WANBytes = %d, want 160", got)
	}
	if got := a.DeliveredBytes(); got != 100 {
		t.Fatalf("DeliveredBytes = %d, want 100", got)
	}
	if got := a.ByteHitRate(); got != 0.4 {
		t.Fatalf("ByteHitRate = %v, want 0.4", got)
	}
}

func TestAccountingZero(t *testing.T) {
	var a Accounting
	if a.ByteHitRate() != 0 {
		t.Fatal("zero accounting rates should be 0, not NaN")
	}
}

func TestAccountingAdd(t *testing.T) {
	a := Accounting{Queries: 1, Hits: 2, BypassBytes: 3}
	b := Accounting{Queries: 10, Hits: 20, BypassBytes: 30, FetchBytes: 5}
	a.Add(b)
	if a.Queries != 11 || a.Hits != 22 || a.BypassBytes != 33 || a.FetchBytes != 5 {
		t.Fatalf("Add produced %+v", a)
	}
}

func TestSimulatorUnknownObject(t *testing.T) {
	sim := &Simulator{Policy: NewNoCache(), Objects: objMap()}
	_, err := sim.Run(singleAccessTrace(Access{Object: "ghost", Yield: 1}))
	if err == nil {
		t.Fatal("expected UnknownObjectError")
	}
	if _, ok := err.(*UnknownObjectError); !ok {
		t.Fatalf("error type = %T, want *UnknownObjectError", err)
	}
}

func TestSimulatorNoCacheSequenceCost(t *testing.T) {
	// With no caching, WAN cost equals the sum of all yields (the
	// paper's "sequence cost").
	a := testObj("a", 1000)
	b := testObj("b", 500)
	trace := singleAccessTrace(
		Access{a.ID, 100}, Access{b.ID, 200}, Access{a.ID, 300},
	)
	sim := &Simulator{Policy: NewNoCache(), Objects: objMap(a, b)}
	res, err := sim.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acct.WANBytes() != 600 {
		t.Fatalf("WANBytes = %d, want 600", res.Acct.WANBytes())
	}
	if res.Acct.Bypasses != 3 || res.Acct.Hits != 0 || res.Acct.Loads != 0 {
		t.Fatalf("decisions = %+v", res.Acct)
	}
	if res.Acct.DeliveredBytes() != 600 {
		t.Fatalf("DeliveredBytes = %d, want 600", res.Acct.DeliveredBytes())
	}
}

func TestSimulatorCurve(t *testing.T) {
	a := testObj("a", 1000)
	trace := singleAccessTrace(
		Access{a.ID, 10}, Access{a.ID, 10}, Access{a.ID, 10},
		Access{a.ID, 10}, Access{a.ID, 10},
	)
	sim := &Simulator{Policy: NewNoCache(), Objects: objMap(a), CurveStride: 2}
	res, err := sim.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{20, 40, 50}
	if len(res.Curve) != len(want) {
		t.Fatalf("curve = %v, want %v", res.Curve, want)
	}
	for i := range want {
		if res.Curve[i] != want[i] {
			t.Fatalf("curve = %v, want %v", res.Curve, want)
		}
	}
}

func TestSimulatorCurveExactMultiple(t *testing.T) {
	// When the trace length is an exact multiple of the stride the
	// final sample must not be duplicated.
	a := testObj("a", 1000)
	trace := singleAccessTrace(
		Access{a.ID, 10}, Access{a.ID, 10}, Access{a.ID, 10}, Access{a.ID, 10},
	)
	sim := &Simulator{Policy: NewNoCache(), Objects: objMap(a), CurveStride: 2}
	res, err := sim.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{20, 40}
	if len(res.Curve) != 2 || res.Curve[0] != want[0] || res.Curve[1] != want[1] {
		t.Fatalf("curve = %v, want %v", res.Curve, want)
	}
}

// allPolicies builds one of each policy for cross-cutting tests.
func allPolicies(capacity int64) []Policy {
	return []Policy{
		NewRateProfile(RateProfileConfig{Capacity: capacity}),
		NewOnlineBY(NewLandlord(capacity)),
		NewOnlineBY(NewSizeClassMarking(capacity)),
		NewSpaceEffBY(NewLandlord(capacity), rand.NewSource(42)),
		NewGDS(capacity),
		NewNoCache(),
	}
}

func TestPoliciesNeverExceedCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	objs := []Object{
		testObj("t1", 400), testObj("t2", 250), testObj("t3", 100),
		testObj("t4", 80), testObj("t5", 30), testObj("t6", 1500),
	}
	trace := randomTrace(r, objs, 3000, 1.0)
	for _, p := range allPolicies(1000) {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for _, req := range trace {
				for _, acc := range req.Accesses {
					p.Access(req.Seq, objs[indexOf(objs, acc.Object)], acc.Yield)
					if p.Used() > p.Capacity() {
						t.Fatalf("used %d exceeds capacity %d", p.Used(), p.Capacity())
					}
					if p.Used() < 0 {
						t.Fatalf("used went negative: %d", p.Used())
					}
				}
			}
		})
	}
}

func indexOf(objs []Object, id ObjectID) int {
	for i, o := range objs {
		if o.ID == id {
			return i
		}
	}
	panic("object not found: " + string(id))
}

func TestFlowConservation(t *testing.T) {
	// On uniform networks D_A = D_S + D_C must equal the total yield
	// for every policy: the client always receives the same bytes.
	r := rand.New(rand.NewSource(23))
	objs := []Object{
		testObj("t1", 400), testObj("t2", 250), testObj("t3", 100), testObj("t4", 60),
	}
	trace := randomTrace(r, objs, 2000, 1.0)
	for _, p := range allPolicies(500) {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			sim := &Simulator{Policy: p, Objects: objMap(objs...)}
			res, err := sim.Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			if res.Acct.DeliveredBytes() != res.Acct.YieldBytes {
				t.Fatalf("D_A = %d, want total yield %d",
					res.Acct.DeliveredBytes(), res.Acct.YieldBytes)
			}
			if res.Acct.Hits+res.Acct.Bypasses+res.Acct.Loads != res.Acct.Accesses {
				t.Fatal("decision counts do not sum to accesses")
			}
		})
	}
}

func TestDeterministicReruns(t *testing.T) {
	// Every deterministic policy must produce identical accounting on
	// identical traces after Reset; SpaceEffBY must when rebuilt with
	// the same seed.
	r := rand.New(rand.NewSource(31))
	objs := []Object{testObj("t1", 300), testObj("t2", 200), testObj("t3", 90)}
	trace := randomTrace(r, objs, 1500, 1.0)

	run := func(p Policy) Accounting {
		sim := &Simulator{Policy: p, Objects: objMap(objs...)}
		res, err := sim.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res.Acct
	}

	for _, mk := range []func() Policy{
		func() Policy { return NewRateProfile(RateProfileConfig{Capacity: 400}) },
		func() Policy { return NewOnlineBY(NewLandlord(400)) },
		func() Policy { return NewSpaceEffBY(NewLandlord(400), rand.NewSource(7)) },
		func() Policy { return NewGDS(400) },
	} {
		p1, p2 := mk(), mk()
		a1, a2 := run(p1), run(p2)
		if a1 != a2 {
			t.Fatalf("%s: non-deterministic accounting: %+v vs %+v", p1.Name(), a1, a2)
		}
	}
}
