package core

import (
	"cmp"
	"slices"
)

// objTable is per-object state — a policy's entries, an episode
// profile, an accumulator — found by the object's Slot rather than by
// hashing its id. An entry lives in one of two places: at its object's
// slot, or, when the object had no slot or its slot held another
// object's entry, in an id-keyed spill map. Never in both.
//
// A find checks the slot first and trusts it only if the id stored
// there is the object's: ids handed out by one object index share their
// bytes, so the check is a length and a pointer compare. When the slot
// misses and nothing has spilled, the object is absent and nothing is
// hashed. Otherwise the map is asked, and an entry found there moves
// into its object's slot if that is free. State restored from a
// snapshot (its objects carry no slot) and objects of a universe that
// numbers its objects like another are what spill. An object without a
// slot is looked for in the map and then in every slot, so it finds its
// entry wherever that has moved; an object with one must have the same
// one wherever the table meets it.
//
// The zero value is an empty table. A pointer a find or a put returns
// is good until the table's next find or put, either of which may grow
// the slots.
type objTable[V any] struct {
	slots []slotEntry[V] // by Slot; slots[0] is never used
	spill map[ObjectID]*V
	n     int // entries, in slots and spilled
}

type slotEntry[V any] struct {
	id ObjectID // "" while the slot is free
	v  V
}

// find returns obj's value, or nil when obj has none.
func (t *objTable[V]) find(obj Object) *V {
	if s := int(obj.Slot); s < len(t.slots) && t.slots[s].id == obj.ID {
		return &t.slots[s].v
	}
	if obj.Slot == 0 {
		return t.findID(obj.ID)
	}
	if len(t.spill) == 0 {
		return nil
	}
	p := t.spill[obj.ID]
	if p == nil {
		return nil
	}
	if e := t.free(obj.Slot); e != nil {
		e.id, e.v = obj.ID, *p
		delete(t.spill, obj.ID)
		return &e.v
	}
	return p
}

// put returns obj's value, adding a zero one when obj has none.
func (t *objTable[V]) put(obj Object) *V {
	if p := t.find(obj); p != nil {
		return p
	}
	t.n++
	if e := t.free(obj.Slot); e != nil {
		e.id = obj.ID
		return &e.v
	}
	if t.spill == nil {
		t.spill = make(map[ObjectID]*V)
	}
	p := new(V)
	t.spill[obj.ID] = p
	return p
}

// free returns slot s when an entry may move into it: s is a slot and
// nothing lives there. The slots grow to hold s.
func (t *objTable[V]) free(s int32) *slotEntry[V] {
	if s <= 0 {
		return nil
	}
	if int(s) >= len(t.slots) {
		t.slots = append(t.slots, make([]slotEntry[V], int(s)+1-len(t.slots))...)
	}
	if e := &t.slots[s]; e.id == "" {
		return e
	}
	return nil
}

// del removes obj's value, if it has one: an entry restored by id and
// since moved to its slot is deleted through the object it was restored
// with, which has no slot.
func (t *objTable[V]) del(obj Object) {
	if s := int(obj.Slot); s < len(t.slots) && t.slots[s].id == obj.ID {
		t.slots[s] = slotEntry[V]{}
		t.n--
		return
	}
	t.delID(obj.ID)
}

// findID is find by id alone (objects without a slot, and accessors
// that take an id): the map, then a scan of the slots.
func (t *objTable[V]) findID(id ObjectID) *V {
	if p := t.spill[id]; p != nil {
		return p
	}
	for s := range t.slots {
		if t.slots[s].id == id {
			return &t.slots[s].v
		}
	}
	return nil
}

// delID is del by id alone.
func (t *objTable[V]) delID(id ObjectID) {
	if _, ok := t.spill[id]; ok {
		delete(t.spill, id)
		t.n--
		return
	}
	for s := range t.slots {
		if t.slots[s].id == id {
			t.slots[s] = slotEntry[V]{}
			t.n--
			return
		}
	}
}

// len reports the number of entries.
func (t *objTable[V]) len() int { return t.n }

// each calls fn for every entry, slots first, then the map in no
// order. fn may change the value but not the table.
func (t *objTable[V]) each(fn func(id ObjectID, v *V)) {
	for s := range t.slots {
		if e := &t.slots[s]; e.id != "" {
			fn(e.id, &e.v)
		}
	}
	for id, p := range t.spill {
		fn(id, p)
	}
}

// keep removes every entry for which fn reports false.
func (t *objTable[V]) keep(fn func(id ObjectID, v *V) bool) {
	for s := range t.slots {
		if e := &t.slots[s]; e.id != "" && !fn(e.id, &e.v) {
			t.slots[s] = slotEntry[V]{}
			t.n--
		}
	}
	for id, p := range t.spill {
		if !fn(id, p) {
			delete(t.spill, id)
			t.n--
		}
	}
}

// sorted returns the entries by id: the order of a snapshot, which must
// not depend on where an entry lives.
func (t *objTable[V]) sorted() []slotEntry[V] {
	out := make([]slotEntry[V], 0, t.n)
	t.each(func(id ObjectID, v *V) { out = append(out, slotEntry[V]{id, *v}) })
	slices.SortFunc(out, func(a, b slotEntry[V]) int { return cmp.Compare(a.id, b.id) })
	return out
}
