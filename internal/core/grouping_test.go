package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGroupSequenceSimple(t *testing.T) {
	// Object size 100; yields 40, 40, 40: one full group (40+40+20)
	// ending at the third query, 20 bytes dropped.
	a := testObj("a", 100)
	trace := singleAccessTrace(Access{a.ID, 40}, Access{a.ID, 40}, Access{a.ID, 40})
	g := GroupSequence(trace, objMap(a))
	if len(g.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(g.Groups))
	}
	grp := g.Groups[0]
	if grp.Object != a.ID || grp.EndSeq != 3 {
		t.Fatalf("group = %+v, want object a ending at seq 3", grp)
	}
	var sum int64
	for _, q := range grp.Queries {
		sum += q.Yield
	}
	if sum != a.Size {
		t.Fatalf("group yield sum = %d, want %d (Condition 7)", sum, a.Size)
	}
	// Fractional split: the third query contributes 20 to the group
	// and 20 to the open (dropped) remainder.
	if g.Dropped[a.ID] != 20 {
		t.Fatalf("dropped = %d, want 20", g.Dropped[a.ID])
	}
	if g.DroppedCost != 20 {
		t.Fatalf("dropped cost = %d, want 20 (uniform network)", g.DroppedCost)
	}
}

func TestGroupSequenceLargeYieldSpansGroups(t *testing.T) {
	// One query with yield 250 against a size-100 object completes two
	// groups and leaves 50 open.
	a := testObj("a", 100)
	trace := singleAccessTrace(Access{a.ID, 250})
	g := GroupSequence(trace, objMap(a))
	if len(g.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(g.Groups))
	}
	if g.Dropped[a.ID] != 50 {
		t.Fatalf("dropped = %d, want 50", g.Dropped[a.ID])
	}
}

func TestGroupSequenceInterleavedObjects(t *testing.T) {
	// Groups are ordered by the query at which they end, across
	// objects.
	a, b := testObj("a", 100), testObj("b", 50)
	trace := singleAccessTrace(
		Access{a.ID, 60}, // a: 60
		Access{b.ID, 50}, // b group ends at seq 2
		Access{a.ID, 40}, // a group ends at seq 3
	)
	g := GroupSequence(trace, objMap(a, b))
	seq := g.ObjectSequence()
	if len(seq) != 2 || seq[0] != b.ID || seq[1] != a.ID {
		t.Fatalf("object sequence = %v, want [b a]", seq)
	}
}

func TestGroupSequenceSkipsUnknownObjects(t *testing.T) {
	a := testObj("a", 100)
	trace := singleAccessTrace(Access{"ghost", 100}, Access{a.ID, 100})
	g := GroupSequence(trace, objMap(a))
	if len(g.Groups) != 1 || g.Groups[0].Object != a.ID {
		t.Fatalf("groups = %+v, want only a", g.Groups)
	}
}

func TestGroupSequenceScaledDroppedCost(t *testing.T) {
	// Non-uniform network: dropped cost scales by f/s.
	a := testObjCost("a", 100, 300)
	trace := singleAccessTrace(Access{a.ID, 50})
	g := GroupSequence(trace, objMap(a))
	if g.DroppedCost != 150 {
		t.Fatalf("dropped cost = %d, want 150", g.DroppedCost)
	}
}

func TestGroupingInvariants(t *testing.T) {
	// Properties over random traces:
	//  1. every group's yields sum exactly to the object size;
	//  2. group end sequences are nondecreasing;
	//  3. total yield = Σ group yields + Σ dropped;
	//  4. each object's dropped remainder is < its size.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		objs := []Object{testObj("a", 100), testObj("b", 37), testObj("c", 256)}
		trace := randomTrace(r, objs, 400, 2.5)
		m := objMap(objs...)
		g := GroupSequence(trace, m)

		var grouped int64
		prevEnd := int64(0)
		for _, grp := range g.Groups {
			var sum int64
			for _, q := range grp.Queries {
				sum += q.Yield
			}
			if sum != m[grp.Object].Size {
				return false
			}
			grouped += sum
			if grp.EndSeq < prevEnd {
				return false
			}
			prevEnd = grp.EndSeq
		}
		var dropped int64
		for id, d := range g.Dropped {
			if d <= 0 || d >= m[id].Size {
				return false
			}
			dropped += d
		}
		var total int64
		for _, req := range trace {
			for _, acc := range req.Accesses {
				total += acc.Yield
			}
		}
		return grouped+dropped == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupSequenceNoZeroYieldQuery: a query whose yield ends a group
// exactly leaves nothing for the next group, so no group holds a query
// of zero yield.
func TestGroupSequenceNoZeroYieldQuery(t *testing.T) {
	a := testObj("a", 100)
	g := GroupSequence(singleAccessTrace(Access{a.ID, 100}, Access{a.ID, 50}, Access{a.ID, 50}), objMap(a))
	if len(g.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(g.Groups))
	}
	for _, grp := range g.Groups {
		for _, q := range grp.Queries {
			if q.Yield == 0 {
				t.Fatalf("group ending at seq %d holds a zero-yield query: %+v", grp.EndSeq, grp.Queries)
			}
		}
	}
}
