package core

import (
	"math/rand"
	"slices"
	"testing"
)

func TestPlanStaticKnapsack(t *testing.T) {
	// A: size 6, total yield 20, fetch 6 → savings 14.
	// B: size 5, total yield 12, fetch 5 → savings 7.
	// C: size 4, total yield 10, fetch 4 → savings 6.
	// Capacity 10: optimum is {A, C} with savings 20 (A+B does not
	// fit; B+C saves only 13).
	a, b, c := testObj("a", 6), testObj("b", 5), testObj("c", 4)
	var accs []Access
	add := func(o Object, total, per int64) {
		for total > 0 {
			y := per
			if y > total {
				y = total
			}
			accs = append(accs, Access{o.ID, y})
			total -= y
		}
	}
	add(a, 20, 4)
	add(b, 12, 4)
	add(c, 10, 5)
	trace := singleAccessTrace(accs...)
	m := objMap(a, b, c)
	s := PlanStatic(10, trace, m)
	chosen := s.Chosen()
	if len(chosen) != 2 || chosen[0] != "a" || chosen[1] != "c" {
		t.Fatalf("chosen = %v, want [a c]", chosen)
	}
	if s.Used() != 10 {
		t.Fatalf("used = %d, want 10", s.Used())
	}
}

func TestPlanStaticExcludesNegativeSavings(t *testing.T) {
	// Total yield below the fetch cost: caching can only lose.
	a := testObj("a", 100)
	trace := singleAccessTrace(Access{a.ID, 30}, Access{a.ID, 40})
	s := PlanStatic(1000, trace, objMap(a))
	if len(s.Chosen()) != 0 {
		t.Fatalf("chosen = %v, want empty (yield 70 < fetch 100)", s.Chosen())
	}
}

func TestPlanStaticEmptyTrace(t *testing.T) {
	s := PlanStatic(1000, nil, objMap(testObj("a", 10)))
	if len(s.Chosen()) != 0 || s.Used() != 0 {
		t.Fatal("empty trace must choose nothing")
	}
}

func TestPlanStaticZeroCapacity(t *testing.T) {
	a := testObj("a", 10)
	trace := singleAccessTrace(Access{a.ID, 10}, Access{a.ID, 10}, Access{a.ID, 10})
	s := PlanStatic(0, trace, objMap(a))
	if len(s.Chosen()) != 0 {
		t.Fatal("zero-capacity cache must choose nothing")
	}
}

func TestStaticOptimalDecisions(t *testing.T) {
	a, b := testObj("a", 6), testObj("b", 20)
	trace := singleAccessTrace(
		Access{a.ID, 6}, Access{a.ID, 6}, Access{a.ID, 6}, Access{b.ID, 3},
	)
	s := PlanStatic(10, trace, objMap(a, b))
	if !slices.Equal(s.Chosen(), []ObjectID{a.ID}) {
		t.Fatalf("a alone should be chosen, got %v", s.Chosen())
	}
	// The cache is the plan's loaded part: a is not in it before its
	// first access, which loads it, and is after.
	if s.Contains(a) {
		t.Fatal("a is reported cached before its first access")
	}
	// Replay: first access to a loads, later ones hit; b bypasses.
	if d := s.Access(1, a, 6); d != Load {
		t.Fatalf("first access = %v, want load (lazy population)", d)
	}
	if !s.Contains(a) {
		t.Fatal("a is not reported cached after its load")
	}
	if d := s.Access(2, a, 6); d != Hit {
		t.Fatalf("second access = %v, want hit", d)
	}
	if d := s.Access(4, b, 3); d != Bypass || s.Contains(b) {
		t.Fatalf("unchosen object = %v (cached %t), want bypass, not cached", d, s.Contains(b))
	}
	if s.Evictions() != 0 {
		t.Fatal("static cache must never evict")
	}
}

func TestStaticOptimalNeverWorseThanNoCacheOnUniform(t *testing.T) {
	// By construction (only positive-savings objects chosen), the
	// static plan's WAN cost is at most the sequence cost.
	r := rand.New(rand.NewSource(17))
	objs := []Object{testObj("a", 100), testObj("b", 250), testObj("c", 40)}
	trace := randomTrace(r, objs, 2000, 1.0)
	m := objMap(objs...)
	run := func(p Policy) int64 {
		sim := &Simulator{Policy: p, Objects: m}
		res, err := sim.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res.Acct.WANBytes()
	}
	static := run(PlanStatic(300, trace, m))
	seq := run(NewNoCache())
	if static > seq {
		t.Fatalf("static cost %d exceeds sequence cost %d", static, seq)
	}
}

func TestPlanStaticDPBeatsGreedyWhenDensityMisleads(t *testing.T) {
	// Density-greedy picks the dense small object first and wastes
	// capacity; DP must find the exact optimum. Capacity 10:
	//   x: size 6, savings 12 (density 2.0)
	//   y: size 5, savings 9  (density 1.8)
	//   z: size 5, savings 9  (density 1.8)
	// Greedy takes x (used 6), cannot fit y or z → 12.
	// Optimum is {y, z} = 18.
	x, y, z := testObj("x", 6), testObj("y", 5), testObj("z", 5)
	var accs []Access
	// savings = total yield − fetch.
	add := func(o Object, totalYield int64) {
		for rem := totalYield; rem > 0; {
			step := o.Size
			if step > rem {
				step = rem
			}
			accs = append(accs, Access{o.ID, step})
			rem -= step
		}
	}
	add(x, 18) // 18 − 6 = 12
	add(y, 14) // 14 − 5 = 9
	add(z, 14)
	trace := singleAccessTrace(accs...)
	s := PlanStatic(10, trace, objMap(x, y, z))
	chosen := s.Chosen()
	if len(chosen) != 2 || chosen[0] != "y" || chosen[1] != "z" {
		t.Fatalf("chosen = %v, want [y z] (exact DP)", chosen)
	}
}
