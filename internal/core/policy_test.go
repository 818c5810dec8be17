package core

import (
	"math/rand"
	"testing"
)

// TestLoadsOnlyWhatItDoesNotHold holds every policy NewPolicyByName builds
// to the contract on Policy for a cached object: over seeded sequences of
// accesses to a dozen objects of mixed size, with yields up to three
// times the size, an object Contains reports before its access is a Hit,
// and a Load leaves the object cached.
func TestLoadsOnlyWhatItDoesNotHold(t *testing.T) {
	const capacity = 1000
	objs := []Object{
		testObj("a", 10), testObj("b", 40), testObjCost("c", 90, 30), testObj("d", 150),
		testObj("e", 220), testObjCost("f", 300, 900), testObj("g", 410), testObj("h", 500),
		testObjCost("i", 640, 200), testObj("j", 800), testObj("k", capacity), testObj("l", 1300),
	}
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			loads := 0
			for seed := int64(1); seed <= 20; seed++ {
				p, err := NewPolicyByName(name, capacity, seed)
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(seed))
				for step := int64(1); step <= 4000; step++ {
					o := objs[r.Intn(len(objs))]
					yield := r.Int63n(3*o.Size + 1)
					held := p.Contains(o)
					d := p.Access(step, o, yield)
					switch {
					case held && d != Hit:
						t.Fatalf("seed %d step %d: %s is cached, and its access with yield %d is %s, want hit", seed, step, o.ID, yield, d)
					case d == Load && !p.Contains(o):
						t.Fatalf("seed %d step %d: %s was loaded and is not cached", seed, step, o.ID)
					case d == Load:
						loads++
					}
				}
			}
			if loads == 0 && name != "none" {
				t.Errorf("%s loaded nothing in 20 × 4 000 accesses", name)
			}
		})
	}
}

// TestOversizeIsAlwaysBypassed holds every policy NewPolicyByName builds
// to the contract on Policy for an object larger than the cache: over
// seeded interleavings of accesses to objects that fit and to objects
// that do not, every access to one that does not is a bypass, and none
// is ever cached. The oversize yields reach ten times the object's size,
// so OnlineBY's accumulator crosses 1 several times in one access and
// presents the object to Landlord once per crossing, and SpaceEffBY
// presents it with probability 1.
func TestOversizeIsAlwaysBypassed(t *testing.T) {
	const capacity = 1000
	fit := []Object{
		testObj("fit-a", 100), testObj("fit-b", 350), testObjCost("fit-c", 600, 900), testObj("fit-d", capacity),
	}
	over := []Object{
		testObj("over-a", capacity+1), testObjCost("over-b", 2500, 400), testObjCost("over-c", 40000, 90000),
	}
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				p, err := NewPolicyByName(name, capacity, seed)
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(seed))
				for step := int64(1); step <= 2000; step++ {
					if r.Intn(3) > 0 {
						o := fit[r.Intn(len(fit))]
						p.Access(step, o, r.Int63n(2*o.Size+1))
					} else {
						o := over[r.Intn(len(over))]
						yield := r.Int63n(10*o.Size + 1)
						if d := p.Access(step, o, yield); d != Bypass {
							t.Fatalf("seed %d step %d: %s (size %d, cache %d) with yield %d: %s, want bypass",
								seed, step, o.ID, o.Size, p.Capacity(), yield, d)
						}
					}
					for _, o := range over {
						if p.Contains(o) {
							t.Fatalf("seed %d step %d: %s (size %d) is cached in a cache of %d", seed, step, o.ID, o.Size, p.Capacity())
						}
					}
				}
			}
		})
	}
}
