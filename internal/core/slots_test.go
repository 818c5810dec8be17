package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/trace"
	"bypassyield/internal/workload"
)

// namedPolicy builds one of the ten named policies over src: as
// NewPolicyByName does, SpaceEffBY's coin from src.
func namedPolicy(t *testing.T, name string, capacity int64, src rand.Source) core.Policy {
	t.Helper()
	if name == "space-eff-by" {
		return core.NewSpaceEffBY(core.NewLandlord(capacity), src)
	}
	p, err := core.NewPolicyByName(name, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// slotAccess is one access of the test's stream.
type slotAccess struct {
	obj   core.Object
	yield int64
}

// decision is what a policy answered to one access.
type decision struct {
	d  core.Decision
	ex core.Explain
}

// run feeds accesses to p, each at its time in at, and returns what it
// answered.
func run(p core.Policy, accs []slotAccess, at []int64) []decision {
	out := make([]decision, len(accs))
	se, _ := p.(core.SelfExplainer)
	for i, a := range accs {
		out[i].d = p.Access(at[i], a.obj, a.yield)
		if se != nil {
			out[i].ex = *se.LastExplain()
		}
	}
	return out
}

// snapshot is p's state blob, nil when p has none.
func snapshot(p core.Policy) []byte {
	if ss, ok := p.(core.StateSnapshotter); ok {
		return ss.SnapshotState()
	}
	return nil
}

// sameRun requires two runs to have answered alike, access by access.
func sameRun(t *testing.T, what string, got, want []decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: access %d answered %s %+v, want %s %+v", what, i, got[i].d, got[i].ex, want[i].d, want[i].ex)
		}
	}
}

// TestSlotsNeverChangeADecision holds every named policy to one rule: an
// object's slot changes where its state is kept, never what the policy
// decides. One EDR column-access stream (a 1/20 trace, at a cache of a
// third of the release, where every caching policy evicts what it
// restored) is fed four ways, and the decisions, the explanations and
// the re-encoded snapshots must be identical:
//
//	(a) the index's objects, slotted, against (b) the same with Slot 0;
//	(c) two cloned universes, ids differing and slots colliding, each
//	    object's access followed by its clone's, slotted and not;
//	(d) (a) snapshotted at the middle, restored into a fresh policy of
//	    the same seed and continued with slotted objects, against (a)
//	    uninterrupted. The restored entries are found by id, move into
//	    their slots when next seen, and some of them are evicted from
//	    there.
func TestSlotsNeverChangeADecision(t *testing.T) {
	const seed = 7
	scale := 20
	if testing.Short() {
		scale = 100
	}
	recs, err := workload.Generate(workload.ScaledProfile(workload.EDRProfile(), scale), federation.Columns)
	if err != nil {
		t.Fatal(err)
	}
	s := catalog.EDR()
	objects := federation.Objects(s, federation.Columns, nil)
	capacity := s.TotalBytes() / 3

	var slotted, unslotted, clones, unslottedClones []slotAccess
	var at, cloneAt []int64
	for _, req := range trace.Requests(trace.Preprocess(recs)) {
		for _, a := range req.Accesses {
			obj, ok := objects[a.Object]
			if !ok || obj.Slot == 0 {
				t.Fatalf("%s: not an object of the index, or not numbered", a.Object)
			}
			bare := obj
			bare.Slot = 0
			clone := obj
			clone.ID = "b:" + obj.ID
			bareClone := clone
			bareClone.Slot = 0
			slotted = append(slotted, slotAccess{obj, a.Yield})
			unslotted = append(unslotted, slotAccess{bare, a.Yield})
			clones = append(clones, slotAccess{obj, a.Yield}, slotAccess{clone, a.Yield})
			unslottedClones = append(unslottedClones, slotAccess{bare, a.Yield}, slotAccess{bareClone, a.Yield})
			at = append(at, req.Seq)
			cloneAt = append(cloneAt, req.Seq, req.Seq)
		}
	}
	mid := len(slotted) / 2
	for mid < len(at) && at[mid] == at[mid-1] { // snapshot between queries
		mid++
	}

	for _, name := range core.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			// (a) against (b), whole and at the middle.
			a := namedPolicy(t, name, capacity, rand.NewSource(seed))
			b := namedPolicy(t, name, capacity, rand.NewSource(seed))
			gotA := run(a, slotted[:mid], at[:mid])
			sameRun(t, "(a) against (b), first half", gotA, run(b, unslotted[:mid], at[:mid]))
			midSnap := snapshot(a)
			if !bytes.Equal(midSnap, snapshot(b)) {
				t.Fatal("(a) and (b) encode different snapshots at the middle")
			}

			// (d): a fresh policy restored from the middle, continued.
			d := namedPolicy(t, name, capacity, rand.NewSource(seed))
			if midSnap != nil {
				if err := d.(core.StateSnapshotter).RestoreState(midSnap); err != nil {
					t.Fatal(err)
				}
			}
			// Each held object without its slot, so that asking for it
			// moves nothing into a slot.
			held := map[core.ObjectID]core.Object{}
			for _, obj := range objects {
				obj.Slot = 0
				if d.Contains(obj) {
					held[obj.ID] = obj
				}
			}
			restored := len(held)
			gotA = append(gotA, run(a, slotted[mid:], at[mid:])...)
			sameRun(t, "(a) against (b), second half", gotA[mid:], run(b, unslotted[mid:], at[mid:]))
			// A restored entry is found by id (its object has no slot)
			// until a slotted access moves it into its slot; count those
			// evicted after that, from their slots.
			moved, movedEvicted := map[core.ObjectID]bool{}, 0
			var gotD []decision
			for i := mid; i < len(slotted); i++ {
				id := slotted[i].obj.ID
				if _, ok := held[id]; ok {
					moved[id] = true
				}
				before := d.Evictions()
				gotD = append(gotD, run(d, slotted[i:i+1], at[i:i+1])...)
				if d.Evictions() == before {
					continue
				}
				for id, obj := range held {
					if !d.Contains(obj) {
						if moved[id] {
							movedEvicted++
						}
						delete(held, id)
					}
				}
			}
			sameRun(t, "(d) restored at the middle against (a)", gotD, gotA[mid:])
			endA := snapshot(a)
			if !bytes.Equal(endA, snapshot(b)) || !bytes.Equal(endA, snapshot(d)) {
				t.Fatal("(a), (b) and (d) encode different snapshots at the end")
			}
			if name != "none" && movedEvicted == 0 {
				t.Fatalf("(d) evicted no restored entry from its slot: the test is vacuous")
			}

			// (c) two universes whose slots collide.
			c := namedPolicy(t, name, capacity, rand.NewSource(seed))
			c0 := namedPolicy(t, name, capacity, rand.NewSource(seed))
			sameRun(t, "(c) cloned universes", run(c, clones, cloneAt), run(c0, unslottedClones, cloneAt))
			if !bytes.Equal(snapshot(c), snapshot(c0)) {
				t.Fatal("(c) encodes different snapshots with and without slots")
			}
			t.Logf("%d accesses, %d evictions; (d) restored %d cached objects and evicted %d of them from their slots",
				len(slotted), a.Evictions(), restored, movedEvicted)
		})
	}
}
