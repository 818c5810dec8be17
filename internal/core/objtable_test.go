package core

import (
	"strings"
	"testing"
)

// valueOf is the value an objTable holds for id, the zero value when it
// holds none.
func valueOf[V any](t *objTable[V], id ObjectID) (v V) {
	if p := t.findID(id); p != nil {
		v = *p
	}
	return v
}

// TestObjTablePlaces walks an entry through the table's places: a
// slotted object's entry lives in its slot; an object without a slot,
// and one whose slot holds another id, spill; a spilled entry moves into
// its slot when it is next found with a free one; and the object it was
// restored with, which has no slot, still finds and deletes it there.
func TestObjTablePlaces(t *testing.T) {
	var tab objTable[int64]
	a := Object{ID: ObjectID(strings.Clone("u/a")), Slot: 3}
	twin := Object{ID: "v/a", Slot: 3} // another universe's object, numbered alike
	*tab.put(a) = 1
	*tab.put(twin) = 2
	if tab.slots[3].id != a.ID || len(tab.spill) != 1 || tab.len() != 2 {
		t.Fatalf("a in slot %q, %d spilled, %d entries: want a in its slot and its twin spilled", tab.slots[3].id, len(tab.spill), tab.len())
	}
	if *tab.find(a) != 1 || *tab.find(twin) != 2 {
		t.Fatal("the two objects sharing a slot read each other's values")
	}

	// Restored state carries no slot; the first find with one moves it.
	restored := Object{ID: "u/b"}
	*tab.put(restored) = 7
	b := Object{ID: "u/b", Slot: 5}
	if p := tab.find(b); p == nil || *p != 7 || tab.slots[5].id != b.ID || tab.spill["u/b"] != nil {
		t.Fatal("a restored entry did not move into its slot when found with one")
	}
	if p := tab.find(restored); p == nil || *p != 7 {
		t.Fatal("the moved entry is lost to its restored object")
	}
	// Evicted through the object it was restored with: the slot must
	// not keep the entry.
	tab.del(restored)
	if tab.find(b) != nil || tab.findID("u/b") != nil || tab.len() != 2 {
		t.Fatal("deleting through the restored object left the entry in its slot")
	}

	// A twin freed of its collision moves in once a's slot is free.
	tab.del(a)
	if tab.find(twin); tab.slots[3].id != twin.ID || len(tab.spill) != 0 {
		t.Fatal("a spilled entry did not take its freed slot")
	}
	if valueOf(&tab, "v/a") != 2 || valueOf(&tab, "u/a") != 0 {
		t.Fatal("findID reads the wrong entries")
	}

	*tab.put(Object{ID: "u/c", Slot: 1}) = 9
	*tab.put(Object{ID: "u/0"}) = 4
	var ids []ObjectID
	for _, e := range tab.sorted() {
		ids = append(ids, e.id)
	}
	if strings.Join([]string{string(ids[0]), string(ids[1]), string(ids[2])}, ",") != "u/0,u/c,v/a" || len(ids) != 3 {
		t.Fatalf("sorted = %v, want u/0, u/c, v/a", ids)
	}
	tab.keep(func(id ObjectID, v *int64) bool { return *v > 3 })
	if tab.len() != 2 || tab.findID("v/a") != nil {
		t.Fatalf("keep left %d entries, v/a %v", tab.len(), tab.findID("v/a"))
	}
}

// TestObjTableSlotPathAllocatesNothing: finding and updating a slotted
// object's entry allocates nothing, and neither does asking for an
// absent object while nothing has spilled.
func TestObjTableSlotPathAllocatesNothing(t *testing.T) {
	var tab objTable[int64]
	objs := make([]Object, 64)
	for i := range objs {
		objs[i] = Object{ID: ObjectID(strings.Repeat("x", i+1)), Slot: int32(i + 1)}
		*tab.put(objs[i]) = 1
	}
	absent := Object{ID: "absent", Slot: 200}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		*tab.put(objs[i%len(objs)]) += 1
		if tab.find(absent) != nil {
			t.Fatal("an absent object was found")
		}
		i++
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per access", allocs)
	}
}
