package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bypassyield/internal/statecodec"
)

// statefulPolicies lists the factory names whose decisions are fully
// deterministic after a restore: every name but space-eff-by, whose
// random stream is not captured, so it is tested separately.
var statefulPolicies = func() []string {
	var names []string
	for _, name := range PolicyNames() {
		if name != "space-eff-by" {
			names = append(names, name)
		}
	}
	return names
}()

// driveTrace feeds a trace segment through a policy, returning the
// decisions taken.
func driveTrace(t *testing.T, pol Policy, objs map[ObjectID]Object, reqs []Request) []Decision {
	t.Helper()
	var out []Decision
	for _, req := range reqs {
		for _, acc := range req.Accesses {
			out = append(out, pol.Access(req.Seq, objs[acc.Object], acc.Yield))
		}
	}
	return out
}

func sortedContents(pol Policy) []ObjectID {
	cl, ok := pol.(ContentLister)
	if !ok {
		return nil
	}
	ids := cl.Contents()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// persistTestUniverse builds a mixed-size object set spanning two
// sites with non-uniform fetch costs.
func persistTestUniverse() []Object {
	var objs []Object
	for i := 0; i < 12; i++ {
		size := int64(50 + 37*i)
		fetch := size
		site := "site-a"
		if i%3 == 0 {
			fetch = size * 2 // a remote, expensive site
			site = "site-b"
		}
		objs = append(objs, Object{
			ID:        ObjectID(rune('a' + i)),
			Size:      size,
			FetchCost: fetch,
			Site:      site,
		})
	}
	return objs
}

// TestStateRoundTrip drives each policy through a prefix trace,
// snapshots it, restores into a freshly constructed instance, and
// asserts both copies take identical decisions over a continuation
// trace — the property WAL replay relies on.
func TestStateRoundTrip(t *testing.T) {
	objs := persistTestUniverse()
	byID := objMap(objs...)
	const capacity = 600

	for _, name := range statefulPolicies {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			prefix := randomTrace(r, objs, 400, 1.2)
			cont := randomTrace(r, objs, 300, 1.2)
			for i := range cont {
				cont[i].Seq += 400
			}

			orig, err := NewPolicyByName(name, capacity, 1)
			if err != nil {
				t.Fatal(err)
			}
			driveTrace(t, orig, byID, prefix)

			ss, ok := orig.(StateSnapshotter)
			if !ok {
				t.Fatalf("policy %s does not implement StateSnapshotter", name)
			}
			blob := ss.SnapshotState()
			if blob == nil {
				t.Fatalf("policy %s returned nil snapshot", name)
			}

			restored, err := NewPolicyByName(name, capacity, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.(StateSnapshotter).RestoreState(blob); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}

			if got, want := restored.Used(), orig.Used(); got != want {
				t.Fatalf("restored Used = %d, want %d", got, want)
			}
			if got, want := restored.Evictions(), orig.Evictions(); got != want {
				t.Fatalf("restored Evictions = %d, want %d", got, want)
			}
			gc, wc := sortedContents(restored), sortedContents(orig)
			if len(gc) != len(wc) {
				t.Fatalf("restored contents %v, want %v", gc, wc)
			}
			for i := range gc {
				if gc[i] != wc[i] {
					t.Fatalf("restored contents %v, want %v", gc, wc)
				}
			}

			d1 := driveTrace(t, orig, byID, cont)
			d2 := driveTrace(t, restored, byID, cont)
			for i := range d1 {
				if d1[i] != d2[i] {
					t.Fatalf("decision %d diverged after restore: orig %v, restored %v", i, d1[i], d2[i])
				}
			}
			if orig.Used() != restored.Used() {
				t.Fatalf("post-continuation Used diverged: orig %d, restored %d", orig.Used(), restored.Used())
			}
		})
	}
}

// TestStateRoundTripSpaceEff checks the randomized policy's restorable
// part: the subroutine cache state round-trips exactly even though the
// random stream does not.
func TestStateRoundTripSpaceEff(t *testing.T) {
	objs := persistTestUniverse()
	byID := objMap(objs...)
	orig := NewSpaceEffBY(NewLandlord(600), rand.NewSource(3))
	r := rand.New(rand.NewSource(9))
	driveTrace(t, orig, byID, randomTrace(r, objs, 500, 1.5))

	blob := orig.SnapshotState()
	if blob == nil {
		t.Fatal("nil snapshot")
	}
	restored := NewSpaceEffBY(NewLandlord(600), rand.NewSource(99))
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Used() != orig.Used() {
		t.Fatalf("restored Used = %d, want %d", restored.Used(), orig.Used())
	}
	if restored.Evictions() != orig.Evictions() {
		t.Fatalf("restored Evictions = %d, want %d", restored.Evictions(), orig.Evictions())
	}
	for _, o := range objs {
		if restored.Contains(o.ID) != orig.Contains(o.ID) {
			t.Fatalf("restored Contains(%s) = %v, want %v", o.ID, restored.Contains(o.ID), orig.Contains(o.ID))
		}
	}
}

// TestRateProfileEpisodeStateSurvives asserts the episode table —
// the LAR history that makes Rate-Profile workload-driven — restores
// exactly, not just the cache contents.
func TestRateProfileEpisodeStateSurvives(t *testing.T) {
	objs := persistTestUniverse()
	byID := objMap(objs...)
	orig := NewRateProfile(RateProfileConfig{Capacity: 400})
	r := rand.New(rand.NewSource(5))
	driveTrace(t, orig, byID, randomTrace(r, objs, 600, 0.8))
	if orig.ProfileCount() == 0 {
		t.Fatal("trace produced no out-of-cache profiles; test is vacuous")
	}

	restored := NewRateProfile(RateProfileConfig{Capacity: 400})
	if err := restored.RestoreState(orig.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	if restored.ProfileCount() != orig.ProfileCount() {
		t.Fatalf("restored ProfileCount = %d, want %d", restored.ProfileCount(), orig.ProfileCount())
	}
	for _, e := range orig.profiles.byObj.sorted() {
		id, p := e.id, e.v
		q := restored.profiles.get(Object{ID: id})
		if q == nil {
			t.Fatalf("profile %s missing after restore", id)
		}
		if q.open != p.open || q.started != p.started || q.start != p.start ||
			q.sumYield != p.sumYield || q.maxLARP != p.maxLARP || q.lastAccess != p.lastAccess {
			t.Fatalf("profile %s open-episode state diverged: %+v vs %+v", id, q, p)
		}
		if len(q.past) != len(p.past) {
			t.Fatalf("profile %s history length %d, want %d", id, len(q.past), len(p.past))
		}
		for i := range p.past {
			if q.past[i] != p.past[i] {
				t.Fatalf("profile %s LAR history diverged at %d", id, i)
			}
		}
	}
}

// TestRestoreStateRejectsCorrupt drives malformed blobs through every
// policy decoder: truncations, trailing garbage, bit flips, and
// configuration mismatches must return an error (never panic), leave
// the receiver's state byte for byte as it was, and leave it usable.
func TestRestoreStateRejectsCorrupt(t *testing.T) {
	objs := persistTestUniverse()
	byID := objMap(objs...)
	const capacity = 600

	for _, name := range statefulPolicies {
		t.Run(name, func(t *testing.T) {
			orig, _ := NewPolicyByName(name, capacity, 1)
			r := rand.New(rand.NewSource(2))
			driveTrace(t, orig, byID, randomTrace(r, objs, 300, 1.0))
			blob := orig.(StateSnapshotter).SnapshotState()

			check := func(label string, data []byte) {
				t.Helper()
				// A receiver with state of its own, from another trace.
				recv, _ := NewPolicyByName(name, capacity, 1)
				driveTrace(t, recv, byID, randomTrace(rand.New(rand.NewSource(3)), objs, 100, 1.0))
				before := recv.(StateSnapshotter).SnapshotState()
				if err := recv.(StateSnapshotter).RestoreState(data); err == nil {
					t.Fatalf("%s: corrupt blob accepted", label)
				}
				if after := recv.(StateSnapshotter).SnapshotState(); !bytes.Equal(after, before) {
					t.Fatalf("%s (%d bytes): a refused blob changed the receiver's state", label, len(data))
				}
				// The receiver must stay usable after a rejected restore.
				recv.Access(1, objs[0], 10)
			}

			for cut := 1; cut < len(blob); cut += 7 {
				check("truncated", blob[:cut])
			}
			check("trailing", append(append([]byte{}, blob...), 0xFF))
			check("empty", nil)
			if name != "none" {
				// A different capacity must be rejected, not adopted.
				other, _ := NewPolicyByName(name, capacity, 1)
				driveTrace(t, other, byID, randomTrace(rand.New(rand.NewSource(2)), objs, 300, 1.0))
				mismatched, _ := NewPolicyByName(name, capacity/2, 1)
				if err := mismatched.(StateSnapshotter).RestoreState(other.(StateSnapshotter).SnapshotState()); err == nil {
					t.Fatal("capacity mismatch accepted")
				}
			}
		})
	}
}

// TestRestoreRefusesDuplicateObjects: a blob that caches one object twice
// is refused by every decoder of cached objects, which finds the first
// copy in the table it is filling; the same blob with one copy restores.
func TestRestoreRefusesDuplicateObjects(t *testing.T) {
	a := testObj("a", 100)
	for _, c := range []struct {
		name   string
		policy StateSnapshotter
		blob   func(copies int) []byte
	}{
		{"landlord", NewLandlord(1000), func(copies int) []byte {
			e := &statecodec.Encoder{}
			e.U8(llStateVersion)
			e.I64(1000)
			e.F64(0)
			e.I64(0)
			e.U64(uint64(copies))
			for i := 0; i < copies; i++ {
				putObject(e, a)
				e.F64(1)
			}
			return e.Bytes()
		}},
		{"gds", NewGDS(1000), func(copies int) []byte {
			e := &statecodec.Encoder{}
			e.U8(gdsStateVersion)
			e.I64(1000)
			e.I64(0)
			e.U64(uint64(copies))
			for i := 0; i < copies; i++ {
				putObject(e, a)
				e.F64(1)
			}
			e.F64(0)
			return e.Bytes()
		}},
		{"rate-profile", NewRateProfile(RateProfileConfig{Capacity: 1000}), func(copies int) []byte {
			e := &statecodec.Encoder{}
			e.U8(rpStateVersion)
			e.I64(1000)
			e.I64(0)
			e.U64(uint64(copies))
			for i := 0; i < copies; i++ {
				putObject(e, a)
				e.I64(1)
				e.I64(100)
			}
			e.U64(0)
			return e.Bytes()
		}},
		{"size-class-marking", NewSizeClassMarking(1000), func(copies int) []byte {
			e := &statecodec.Encoder{}
			e.U8(scmStateVersion)
			e.I64(1000)
			e.I64(0)
			e.I64(0)
			e.U64(uint64(copies))
			for i := 0; i < copies; i++ {
				putObject(e, a)
				e.Bool(true)
			}
			return e.Bytes()
		}},
	} {
		if err := c.policy.RestoreState(c.blob(2)); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("%s: a blob caching %s twice restored (%v)", c.name, a.ID, err)
		}
		if err := c.policy.RestoreState(c.blob(1)); err != nil {
			t.Errorf("%s: a blob caching %s once: %v", c.name, a.ID, err)
		}
	}
}

// TestRestoreRefusesSizesPastCapacity: a blob whose objects' sizes sum
// past the largest int64 is refused, not wrapped below the capacity and
// adopted with a negative Used.
func TestRestoreRefusesSizesPastCapacity(t *testing.T) {
	e := &statecodec.Encoder{}
	e.U8(gdsStateVersion)
	e.I64(1000)
	e.I64(0)
	e.U64(2)
	for _, id := range []string{"a", "b"} {
		putObject(e, testObj(id, math.MaxInt64/2+1))
		e.F64(1)
	}
	e.F64(0)
	g := NewGDS(1000)
	if err := g.RestoreState(e.Bytes()); err == nil || !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("a blob of %d bytes in a 1000-byte cache restored (%v); Used = %d", uint64(math.MaxInt64)+1, err, g.Used())
	}
}
