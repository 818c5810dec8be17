package core

import "testing"

func TestLRUKPrefersFrequentlyReferenced(t *testing.T) {
	// The classic LRU-K scenario: a frequently re-referenced object
	// must survive a recently touched one-off, where plain LRU would
	// evict it.
	l := NewLRUK(120, 2)
	hot, scan := testObj("hot", 60), testObj("scan", 60)
	l.Access(1, hot, 1)
	l.Access(2, hot, 1) // hot has a full 2-history
	l.Access(3, scan, 1)
	// A new object forces an eviction: scan (one reference, infinite
	// backward 2-distance) must go despite being more recent than
	// hot's 2nd reference.
	l.Access(4, testObj("new", 60), 1)
	if !l.Contains(hot.ID) {
		t.Fatal("hot object evicted despite full K-history")
	}
	if l.Contains(scan.ID) {
		t.Fatal("one-off scan object should be the victim")
	}
}

func TestLRUKHistoryRetainedAcrossEviction(t *testing.T) {
	l := NewLRUK(60, 2)
	a := testObj("a", 60)
	l.Access(1, a, 1)
	l.Access(2, a, 1)
	l.Access(3, testObj("b", 60), 1) // evicts a
	if l.Contains(a.ID) {
		t.Fatal("a should be evicted")
	}
	if len(valueOf(&l.hist, a.ID)) != 2 {
		t.Fatalf("history lost on eviction: %v", valueOf(&l.hist, a.ID))
	}
}

func TestLRUKDegradesToLRUWithK1(t *testing.T) {
	l := NewLRUK(120, 1)
	a, b, c := testObj("a", 60), testObj("b", 60), testObj("c", 60)
	l.Access(1, a, 1)
	l.Access(2, b, 1)
	l.Access(3, a, 1) // refresh a
	l.Access(4, c, 1) // LRU victim is b
	if l.Contains(b.ID) {
		t.Fatal("b should be the LRU victim at k=1")
	}
}

func TestLRUKZeroKClamped(t *testing.T) {
	l := NewLRUK(100, 0)
	if l.k != 1 {
		t.Fatalf("k = %d, want clamped to 1", l.k)
	}
}

func TestLRUKReset(t *testing.T) {
	l := NewLRUK(100, 2)
	l.Access(1, testObj("a", 50), 1)
	l.Reset()
	if l.Used() != 0 || l.hist.len() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestLRUKOversized(t *testing.T) {
	l := NewLRUK(100, 2)
	if d := l.Access(1, testObj("big", 200), 1); d != Bypass {
		t.Fatalf("oversized = %v, want bypass", d)
	}
}

// TestLRUKHistoryInPlace: a reference shifts the object's K-history
// where it lies — the history reads most recent first, never longer
// than K — and allocates nothing once the object has been seen,
// whether the history was built here or restored from a snapshot.
func TestLRUKHistoryInPlace(t *testing.T) {
	const k = 3
	l := NewLRUK(1000, k)
	objs := []Object{testObj("a", 100), testObj("b", 100), testObj("c", 100)}
	want := map[ObjectID][]int64{}
	for ts := int64(1); ts <= 20; ts++ {
		o := objs[ts%3]
		if ts%5 == 0 {
			o = objs[0]
		}
		l.Access(ts, o, 1)
		h := append([]int64{ts}, want[o.ID]...)
		if len(h) > k {
			h = h[:k]
		}
		want[o.ID] = h
	}
	for id, h := range want {
		if got := valueOf(&l.hist, id); len(got) != len(h) || got[0] != h[0] || got[len(got)-1] != h[len(h)-1] {
			t.Fatalf("history of %s = %v, want %v", id, got, h)
		}
	}

	restored := NewLRUK(1000, k)
	if err := restored.RestoreState(l.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*LRUK{l, restored} {
		ts := int64(100)
		if allocs := testing.AllocsPerRun(50, func() {
			ts++
			p.Access(ts, objs[ts%3], 1)
		}); allocs != 0 {
			t.Fatalf("a reference to a seen object allocates %.1f times", allocs)
		}
	}
	// The two saw the same references: same histories, same cache.
	for _, e := range l.hist.sorted() {
		id, h := e.id, e.v
		if got := valueOf(&restored.hist, id); len(got) != len(h) || got[0] != h[0] || got[k-1] != h[k-1] {
			t.Fatalf("after restore, history of %s = %v, uninterrupted %v", id, got, h)
		}
	}
}
