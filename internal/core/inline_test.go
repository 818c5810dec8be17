package core

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestGDSLoadsEveryMiss(t *testing.T) {
	// The in-line comparator caches all requests — the behaviour the
	// paper identifies as the source of its poor network citizenship.
	g := NewGDS(100)
	a, b := testObj("a", 60), testObj("b", 60)
	if d := g.Access(1, a, 1); d != Load {
		t.Fatalf("miss decision = %v, want load", d)
	}
	if d := g.Access(2, b, 1); d != Load {
		t.Fatalf("miss decision = %v, want load (after evicting a)", d)
	}
	if g.Contains(a) {
		t.Fatal("a should have been evicted")
	}
	if g.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", g.Evictions())
	}
}

func TestGDSInflation(t *testing.T) {
	// GDS priorities: H = L + cost/size. After evicting a (H=1),
	// L rises to 1, and c is inserted at the raised L, so a freshly
	// inserted object outranks the stale priorities of earlier eras.
	g := NewGDS(120)
	a := testObjCost("a", 60, 60)  // H = 0 + 1 = 1
	b := testObjCost("b", 60, 120) // H = 0 + 2 = 2
	c := testObjCost("c", 60, 60)  // inserted after eviction: H = 1 + 1 = 2
	g.Access(1, a, 1)
	g.Access(2, b, 1)
	g.Access(3, c, 1) // must evict a (min H = 1), set L = 1
	if g.Contains(a) || !g.Contains(b) || !g.Contains(c) {
		t.Fatal("GDS should evict the min-priority object a")
	}
	if !almostEqual(g.l, 1) {
		t.Fatalf("inflation L = %v, want 1", g.l)
	}
	if h := priorityOf(&g.greedyDual, c.ID); !almostEqual(h, 2) {
		t.Fatalf("c's priority H = %v, want L + cost/size = 2", h)
	}
}

// priorityOf returns a cached object's priority.
func priorityOf(g *greedyDual, id ObjectID) float64 {
	return (*g.items.findID(id)).Utility
}

func TestGDSHitRefreshesPriority(t *testing.T) {
	g := NewGDS(120)
	x := testObjCost("x", 60, 60) // H = 1
	a := testObjCost("a", 60, 90) // H = 1.5
	d := testObjCost("d", 60, 60)
	g.Access(1, x, 1)
	g.Access(2, a, 1)
	g.Access(3, d, 1) // evicts x: L = 1, d's H = 2
	g.Access(4, a, 1) // hit: a's H = L + 1.5 = 2.5, above d's
	g.Access(5, testObj("e", 60), 1)
	// Without the refresh a (1.5) would be the victim; with it, d (2).
	if !g.Contains(a) || g.Contains(d) {
		t.Fatalf("after a's refresh: a cached %t, d cached %t; want a kept, d evicted",
			g.Contains(a), g.Contains(d))
	}
	if g.Used() != 120 {
		t.Fatalf("used = %d, want 120", g.Used())
	}
}

func TestGDSOversizedBypasses(t *testing.T) {
	g := NewGDS(100)
	big := testObj("big", 200)
	if d := g.Access(1, big, 10); d != Bypass {
		t.Fatalf("oversized = %v, want bypass (forced)", d)
	}
}

func TestInlineCacheNamesAndCapacity(t *testing.T) {
	cases := []struct {
		p    Policy
		name string
	}{
		{NewGDS(10), "gds"},
	}
	for _, tc := range cases {
		if tc.p.Name() != tc.name {
			t.Fatalf("Name = %q, want %q", tc.p.Name(), tc.name)
		}
		if tc.p.Capacity() != 10 {
			t.Fatalf("%s Capacity = %d, want 10", tc.name, tc.p.Capacity())
		}
	}
}

// refGreedyDual is GreedyDual-Size as Cao & Irani state it, kept apart
// from the heap: a map of cached objects to their priorities H, and a
// linear scan for the minimum H to evict. L rises to each evicted H,
// and a loaded object gets L + cost/size at the raised L.
type refGreedyDual struct {
	cap, used, evictions int64
	l                    float64
	h                    map[ObjectID]float64
	size                 map[ObjectID]int64
}

func (r *refGreedyDual) access(obj Object) Decision {
	value := float64(obj.FetchCost) / float64(obj.Size)
	if _, ok := r.h[obj.ID]; ok {
		r.h[obj.ID] = r.l + value
		return Hit
	}
	if obj.Size > r.cap {
		return Bypass
	}
	for r.used+obj.Size > r.cap {
		victim, first := ObjectID(""), true
		for id, h := range r.h {
			if first || h < r.h[victim] {
				victim, first = id, false
			}
		}
		r.l = r.h[victim]
		r.used -= r.size[victim]
		r.evictions++
		delete(r.h, victim)
	}
	r.h[obj.ID] = r.l + value
	r.size[obj.ID] = obj.Size
	r.used += obj.Size
	return Load
}

// TestGreedyDualMatchesReference holds GDS and Landlord to
// refGreedyDual, access by access: the same decision, the same objects cached and the same
// evictions. Every object's cost/size ratio is distinct, so priorities
// do not tie and the victim is the same wherever the minimum is found.
func TestGreedyDualMatchesReference(t *testing.T) {
	type subject struct {
		name   string
		decide func(obj Object) Decision
		cache  interface {
			Contains(obj Object) bool
			Evictions() int64
		}
	}
	const capacity = 2000
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		var objs []Object
		ratios := map[float64]bool{}
		for len(objs) < 30 {
			o := testObjCost(fmt.Sprintf("o%d", len(objs)), int64(1+r.Intn(700)), int64(1+r.Intn(2000)))
			if ratio := float64(o.FetchCost) / float64(o.Size); !ratios[ratio] {
				ratios[ratio] = true
				objs = append(objs, o)
			}
		}
		objs = append(objs, testObj("huge", capacity+1))
		gds, ll := NewGDS(capacity), NewLandlord(capacity)
		subjects := []subject{
			{"gds", func(obj Object) Decision { return gds.Access(0, obj, 0) }, gds},
			{"landlord", func(obj Object) Decision {
				return map[ObjAction]Decision{ObjHit: Hit, ObjLoad: Load, ObjBypass: Bypass}[ll.Request(obj)]
			}, ll},
		}
		stream := make([]Object, 3000)
		for i := range stream {
			stream[i] = objs[r.Intn(len(objs))]
		}
		for _, s := range subjects {
			t.Run(fmt.Sprintf("%s/seed=%d", s.name, seed), func(t *testing.T) {
				ref := &refGreedyDual{cap: capacity, h: map[ObjectID]float64{}, size: map[ObjectID]int64{}}
				for i, obj := range stream {
					want := ref.access(obj)
					if got := s.decide(obj); got != want {
						t.Fatalf("access %d to %s: %v, the reference %v", i, obj.ID, got, want)
					}
					for _, o := range objs {
						if _, ok := ref.h[o.ID]; s.cache.Contains(o) != ok {
							t.Fatalf("after access %d: %s cached %t, in the reference %t", i, o.ID, !ok, ok)
						}
					}
					if got := s.cache.Evictions(); got != ref.evictions {
						t.Fatalf("after access %d: %d evictions, the reference %d", i, got, ref.evictions)
					}
				}
			})
		}
	}
}
