package core

import (
	"math/rand"
	"testing"
)

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
						if p.Contains(o.ID) {
							t.Fatalf("seed %d step %d: %s (size %d) is cached in a cache of %d", seed, step, o.ID, o.Size, p.Capacity())
						}
					}
				}
			}
		})
	}
}
