package core

import (
	"math/rand"
	"testing"
)

func TestLookaheadLoadsOnlyProfitableObjects(t *testing.T) {
	a := testObj("a", 100)
	b := testObj("b", 100)
	// a is accessed heavily; b only once with a small yield.
	trace := []Request{
		{Seq: 1, Accesses: []Access{{a.ID, 80}}},
		{Seq: 2, Accesses: []Access{{b.ID, 10}}},
		{Seq: 3, Accesses: []Access{{a.ID, 80}}},
		{Seq: 4, Accesses: []Access{{a.ID, 80}}},
		{Seq: 5, Accesses: []Access{{a.ID, 80}}},
	}
	la := NewLookahead(100, trace, 0)
	sim := &Simulator{Policy: la, Objects: objMap(a, b)}
	res, err := sim.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	// a loads at first access (future gain 240 > fetch 100); b's gain
	// is zero at its only access → bypass.
	if res.Acct.Loads != 1 {
		t.Fatalf("loads = %d, want 1", res.Acct.Loads)
	}
	if !la.Contains(a) || la.Contains(b) {
		t.Fatal("lookahead cached the wrong object")
	}
	// WAN = fetch(100) + bypass b (10) = 110.
	if res.Acct.WANBytes() != 110 {
		t.Fatalf("WAN = %d, want 110", res.Acct.WANBytes())
	}
}

func TestLookaheadEvictsForBetterFuture(t *testing.T) {
	a := testObj("a", 100)
	b := testObj("b", 100)
	// a is hot early, then dies; b takes over.
	var trace []Request
	seq := int64(0)
	add := func(id ObjectID, y int64) {
		seq++
		trace = append(trace, Request{Seq: seq, Accesses: []Access{{id, y}}})
	}
	for i := 0; i < 5; i++ {
		add(a.ID, 90)
	}
	for i := 0; i < 10; i++ {
		add(b.ID, 90)
	}
	la := NewLookahead(100, trace, 0)
	sim := &Simulator{Policy: la, Objects: objMap(a, b)}
	if _, err := sim.Run(trace); err != nil {
		t.Fatal(err)
	}
	if la.Contains(a) || !la.Contains(b) {
		t.Fatal("lookahead should have switched from a to b")
	}
	if la.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", la.Evictions())
	}
}

func TestLookaheadHorizonLimitsGreed(t *testing.T) {
	a := testObj("a", 100)
	// One access now, the payoff far in the future.
	trace := []Request{
		{Seq: 1, Accesses: []Access{{a.ID, 60}}},
		{Seq: 5000, Accesses: []Access{{a.ID, 60}}},
		{Seq: 5001, Accesses: []Access{{a.ID, 60}}},
	}
	// Unbounded horizon: gain at t=1 is 120 > 100 → load.
	la := NewLookahead(100, trace, 0)
	if d := la.Access(1, a, 60); d != Load {
		t.Fatalf("unbounded horizon: %v, want load", d)
	}
	// Short horizon: the payoff is invisible → bypass.
	la2 := NewLookahead(100, trace, 100)
	if d := la2.Access(1, a, 60); d != Bypass {
		t.Fatalf("bounded horizon: %v, want bypass", d)
	}
}

func TestLookaheadBeatsOnlinePoliciesUsually(t *testing.T) {
	// Clairvoyance should beat the on-line algorithms on random
	// traces — that is its purpose as an empirical bound.
	r := rand.New(rand.NewSource(21))
	objs := []Object{
		testObj("a", 100), testObj("b", 250), testObj("c", 40), testObj("d", 400),
	}
	trace := randomTrace(r, objs, 3000, 1.0)
	m := objMap(objs...)
	run := func(p Policy) int64 {
		sim := &Simulator{Policy: p, Objects: m}
		res, err := sim.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res.Acct.WANBytes()
	}
	la := run(NewLookahead(400, trace, 0))
	online := run(NewOnlineBY(NewLandlord(400)))
	if la > online {
		t.Fatalf("lookahead %d should not lose to online %d", la, online)
	}
}

func TestLookaheadOversized(t *testing.T) {
	big := testObj("big", 1000)
	trace := []Request{{Seq: 1, Accesses: []Access{{big.ID, 900}}}}
	la := NewLookahead(100, trace, 0)
	if d := la.Access(1, big, 900); d != Bypass {
		t.Fatalf("oversized = %v, want bypass", d)
	}
}
