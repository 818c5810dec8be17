package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLandlordBasicLoadHit(t *testing.T) {
	ll := NewLandlord(10)
	a := testObj("a", 4)
	if got := ll.Request(a); got != ObjLoad {
		t.Fatalf("first request = %v, want load", got)
	}
	if got := ll.Request(a); got != ObjHit {
		t.Fatalf("second request = %v, want hit", got)
	}
	if ll.Used() != 4 {
		t.Fatalf("used = %d, want 4", ll.Used())
	}
}

func TestLandlordOversized(t *testing.T) {
	ll := NewLandlord(10)
	big := testObj("big", 11)
	if got := ll.Request(big); got != ObjBypass {
		t.Fatalf("oversized request = %v, want bypass", got)
	}
	if ll.Used() != 0 {
		t.Fatal("oversized object must not be cached")
	}
}

func TestLandlordEvictsMinCreditPerByte(t *testing.T) {
	ll := NewLandlord(10)
	a := testObjCost("a", 4, 4)  // credit/byte = 1
	b := testObjCost("b", 4, 12) // credit/byte = 3
	c := testObj("c", 4)
	ll.Request(a)
	ll.Request(b)
	// c needs 2 more bytes: the min credit-per-byte victim is a.
	if got := ll.Request(c); got != ObjLoad {
		t.Fatalf("request c = %v, want load", got)
	}
	if ll.Contains(a) {
		t.Fatal("a (lowest credit per byte) should have been evicted")
	}
	if !ll.Contains(b) || !ll.Contains(c) {
		t.Fatal("b and c should be cached")
	}
	if ll.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", ll.Evictions())
	}
}

func TestLandlordCreditDecrementOnEviction(t *testing.T) {
	// Evicting a (ratio 1) raises the offset to 1, so b's effective
	// credit drops from 12 to (3−1)·4 = 8 — the uniform δ·size
	// decrement of the Landlord algorithm.
	ll := NewLandlord(10)
	a := testObjCost("a", 4, 4)
	b := testObjCost("b", 4, 12)
	ll.Request(a)
	ll.Request(b)
	ll.Request(testObj("c", 4)) // evicts a
	credit, ok := ll.Credit(b.ID)
	if !ok {
		t.Fatal("b should be cached")
	}
	if !almostEqual(credit, 8) {
		t.Fatalf("b's credit after eviction = %v, want 8", credit)
	}
}

func TestLandlordHitRefreshesCredit(t *testing.T) {
	ll := NewLandlord(10)
	a := testObjCost("a", 4, 4)
	b := testObjCost("b", 4, 12)
	ll.Request(a)
	ll.Request(b)
	ll.Request(testObj("c", 4)) // offset now 1; b credit 8
	ll.Request(b)               // hit: refresh to fetch cost 12
	credit, _ := ll.Credit(b.ID)
	if !almostEqual(credit, 12) {
		t.Fatalf("b's credit after hit = %v, want 12", credit)
	}
}

func TestLandlordCreditInvariant(t *testing.T) {
	// Property: every cached object's effective credit lies in
	// (0, fetch cost].
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ll := NewLandlord(1000)
		objs := make([]Object, 12)
		for i := range objs {
			objs[i] = testObjCost(
				string(rune('a'+i)),
				int64(r.Intn(400)+1),
				int64(r.Intn(800)+1),
			)
		}
		for step := 0; step < 500; step++ {
			o := objs[r.Intn(len(objs))]
			ll.Request(o)
			for _, cand := range objs {
				if credit, ok := ll.Credit(cand.ID); ok {
					// Ties at the eviction boundary may leave a
					// zero-credit object cached; credit must never go
					// negative or exceed the fetch cost.
					if credit < -1e-9 || credit > float64(cand.FetchCost)+1e-9 {
						return false
					}
				}
			}
			if ll.Used() > ll.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeClass(t *testing.T) {
	cases := []struct {
		size int64
		want int
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}}
	for _, tc := range cases {
		if got := sizeClass(tc.size); got != tc.want {
			t.Fatalf("sizeClass(%d) = %d, want %d", tc.size, got, tc.want)
		}
	}
}

func TestSizeClassMarkingBasic(t *testing.T) {
	m := NewSizeClassMarking(10)
	a := testObj("a", 4)
	if got := m.Request(a); got != ObjLoad {
		t.Fatalf("first request = %v, want load", got)
	}
	if got := m.Request(a); got != ObjHit {
		t.Fatalf("second request = %v, want hit", got)
	}
	if got := m.Request(testObj("big", 20)); got != ObjBypass {
		t.Fatalf("oversized = %v, want bypass", got)
	}
}

func TestSizeClassMarkingBypassWhenAllMarked(t *testing.T) {
	m := NewSizeClassMarking(8)
	a, b := testObj("a", 4), testObj("b", 4)
	m.Request(a) // load+mark
	m.Request(b) // load+mark
	// All cached objects are marked; c cannot fit → bypass.
	if got := m.Request(testObj("c", 4)); got != ObjBypass {
		t.Fatalf("request with all marked = %v, want bypass", got)
	}
	if !m.Contains(a) || !m.Contains(b) {
		t.Fatal("marked objects must not be evicted")
	}
}

func TestSizeClassMarkingPhaseTurnover(t *testing.T) {
	// After enough bypassed fetch volume (≥ capacity), the phase ends,
	// marks clear, and subsequent requests may evict.
	m := NewSizeClassMarking(8)
	a, b := testObj("a", 4), testObj("b", 4)
	m.Request(a)
	m.Request(b)
	c := testObj("c", 4)
	m.Request(c) // bypass, phaseBypass = 4
	m.Request(c) // bypass, phaseBypass = 8 ≥ cap → new phase
	if got := m.Request(c); got != ObjLoad {
		t.Fatalf("post-phase request = %v, want load", got)
	}
	if m.Evictions() == 0 {
		t.Fatal("an unmarked object should have been evicted")
	}
}

func TestSizeClassMarkingEvictsSmallestClassFirst(t *testing.T) {
	m := NewSizeClassMarking(12)
	small := testObj("small", 2) // class 1
	large := testObj("large", 8) // class 3
	m.Request(small)
	m.Request(large)
	m.newPhase() // unmark all
	// Requesting a 2-byte object: the smallest-class unmarked victim
	// (small) is evicted first.
	m.Request(testObj("x", 4))
	if m.Contains(small) {
		t.Fatal("smallest-class unmarked object should be evicted first")
	}
	if !m.Contains(large) {
		t.Fatal("larger-class object should survive when space suffices")
	}
}

func TestObjectCachersNeverExceedCapacity(t *testing.T) {
	for _, mk := range []func() ObjectCacher{
		func() ObjectCacher { return NewLandlord(100) },
		func() ObjectCacher { return NewSizeClassMarking(100) },
	} {
		oc := mk()
		t.Run(oc.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(77))
			for i := 0; i < 2000; i++ {
				o := testObj(string(rune('a'+r.Intn(20))), int64(r.Intn(120)+1))
				oc.Request(o)
				if oc.Used() > oc.Capacity() {
					t.Fatalf("used %d > capacity %d", oc.Used(), oc.Capacity())
				}
			}
		})
	}
}

func TestLandlordLRUEquivalenceOnUniformObjects(t *testing.T) {
	// With uniform sizes and costs and no refresh differentiation,
	// Landlord behaves like FIFO/LRU-within-phase: it must achieve a
	// perfect hit run on a cyclic workload that fits.
	ll := NewLandlord(12)
	objs := []Object{testObj("a", 4), testObj("b", 4), testObj("c", 4)}
	for _, o := range objs {
		if ll.Request(o) != ObjLoad {
			t.Fatal("initial loads expected")
		}
	}
	for round := 0; round < 5; round++ {
		for _, o := range objs {
			if ll.Request(o) != ObjHit {
				t.Fatalf("cyclic fit workload should be all hits")
			}
		}
	}
	if ll.Evictions() != 0 {
		t.Fatalf("evictions = %d, want 0", ll.Evictions())
	}
}

// TestSizeClassMarkingLoadsAnObjectOfItsCapacity: an object exactly as
// large as the cache fits, so an empty cache loads it.
func TestSizeClassMarkingLoadsAnObjectOfItsCapacity(t *testing.T) {
	if got := NewSizeClassMarking(100).Request(testObj("a", 100)); got != ObjLoad {
		t.Fatalf("request of a 100-byte object into a 100-byte cache = %v, want load", got)
	}
}
