package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The scripted scenario from DESIGN.md §7: two objects of size 100 on
// a cache of 100 bytes, uniform network. Hand-computed decisions.
func TestRateProfileScriptedScenario(t *testing.T) {
	a := testObj("a", 100)
	b := testObj("b", 100)
	rp := NewRateProfile(RateProfileConfig{Capacity: 100})

	// t=1: first access to a, LAR = (100−100)/100 = 0 → not positive
	// → bypass (rent before buying).
	if d := rp.Access(1, a, 100); d != Bypass {
		t.Fatalf("t=1 decision = %v, want bypass", d)
	}
	// t=2: LARP = 200/(1·100) − 1 = 1.0 → LAR 1.0 > 0, free space →
	// load.
	if d := rp.Access(2, a, 100); d != Load {
		t.Fatalf("t=2 decision = %v, want load", d)
	}
	if !rp.Contains(a) || rp.Used() != 100 {
		t.Fatalf("cache state after load: contains=%v used=%d", rp.Contains(a), rp.Used())
	}
	// t=3: a cached → hit.
	if d := rp.Access(3, a, 50); d != Hit {
		t.Fatalf("t=3 decision = %v, want hit", d)
	}
	// t=4: b first access, LAR = 0; victim a has RP = 150/((4−2)·100)
	// = 0.75 ≥ 0 → bypass.
	if d := rp.Access(4, b, 100); d != Bypass {
		t.Fatalf("t=4 decision = %v, want bypass", d)
	}
	// t=5: b again, LARP = 200/(1·100) − 1 = 1.0 → LAR 1.0; victim a
	// has RP = 150/((5−2)·100) = 0.5 < 1.0 → evict a, load b.
	if d := rp.Access(5, b, 100); d != Load {
		t.Fatalf("t=5 decision = %v, want load", d)
	}
	if rp.Contains(a) || !rp.Contains(b) {
		t.Fatal("expected a evicted and b cached")
	}
	if rp.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", rp.Evictions())
	}
}

func TestRateProfileHitUpdatesRP(t *testing.T) {
	a := testObj("a", 100)
	rp := NewRateProfile(RateProfileConfig{Capacity: 100})
	rp.Access(1, a, 100)
	rp.Access(2, a, 100) // load
	rp.Access(3, a, 70)  // hit
	e := valueOf(&rp.entries, a.ID)
	if e.sumYield != 170 {
		t.Fatalf("sumYield = %d, want 170 (load access 100 + hit 70)", e.sumYield)
	}
	// RP at t=4: 170/((4−2)·100) = 0.85.
	if got := e.rp(4); !almostEqual(got, 0.85) {
		t.Fatalf("rp(4) = %v, want 0.85", got)
	}
}

func TestRateProfileObjectLargerThanCache(t *testing.T) {
	big := testObj("big", 1000)
	rp := NewRateProfile(RateProfileConfig{Capacity: 100})
	for i := int64(1); i <= 10; i++ {
		if d := rp.Access(i, big, 1000); d != Bypass {
			t.Fatalf("oversized object decision = %v, want bypass", d)
		}
	}
	if rp.Used() != 0 {
		t.Fatal("oversized object must never occupy the cache")
	}
}

func TestRateProfileTimeDecaysRP(t *testing.T) {
	// A cached but idle object's RP decays with time, so a hot
	// candidate eventually displaces it.
	a := testObj("a", 100)
	b := testObj("b", 100)
	rp := NewRateProfile(RateProfileConfig{Capacity: 100})
	rp.Access(1, a, 100)
	rp.Access(2, a, 100) // a loaded, sumYield 100
	// Long idle period; at t=1000, RP_a = 100/(998·100) ≈ 0.001.
	// Burst on b: two accesses raise its LAR above RP_a.
	rp.Access(1000, b, 100) // bypass (first LAR = 0)
	if d := rp.Access(1001, b, 100); d != Load {
		t.Fatalf("hot candidate not loaded over idle victim: %v", d)
	}
	if rp.Contains(a) {
		t.Fatal("idle object should have been evicted")
	}
}

func TestRateProfileConservativeEviction(t *testing.T) {
	// A performing cached object must not be evicted for a candidate
	// with lower expected rate. a is hot in cache; b trickles.
	a := testObj("a", 100)
	b := testObj("b", 100)
	rp := NewRateProfile(RateProfileConfig{Capacity: 100})
	rp.Access(1, a, 100)
	rp.Access(2, a, 100) // load a
	for i := int64(3); i <= 50; i++ {
		if i%2 == 1 {
			rp.Access(i, a, 100) // keep a hot (RP stays high)
		} else {
			if d := rp.Access(i, b, 10); d != Bypass {
				t.Fatalf("t=%d: low-rate candidate decision = %v, want bypass", i, d)
			}
		}
	}
	if !rp.Contains(a) {
		t.Fatal("hot object was evicted by a cold candidate")
	}
}

func TestRateProfileMultiVictim(t *testing.T) {
	// Loading a large object may require evicting several small ones;
	// all victims must have RP below the candidate LAR.
	s1, s2 := testObj("s1", 50), testObj("s2", 50)
	big := testObj("big", 100)
	rp := NewRateProfile(RateProfileConfig{Capacity: 100})
	// Load both small objects.
	rp.Access(1, s1, 50)
	rp.Access(2, s1, 50) // load s1
	rp.Access(3, s2, 50)
	rp.Access(4, s2, 50) // load s2
	if rp.Used() != 100 {
		t.Fatalf("used = %d, want 100", rp.Used())
	}
	// Let both go idle, then burst on big.
	rp.Access(500, big, 100)
	d := rp.Access(501, big, 100)
	if d != Load {
		t.Fatalf("decision = %v, want load after burst", d)
	}
	if rp.Contains(s1) || rp.Contains(s2) || !rp.Contains(big) {
		t.Fatal("expected both small objects evicted for the big one")
	}
	if rp.Evictions() != 2 {
		t.Fatalf("evictions = %d, want 2", rp.Evictions())
	}
}

func TestRateProfileLoadCostIsSunk(t *testing.T) {
	// After load, the in-cache RP does not subtract the fetch cost:
	// a freshly loaded object with modest hits must not be evicted by
	// a candidate whose LAR is below its raw rate.
	a := testObj("a", 100)
	b := testObj("b", 100)
	rp := NewRateProfile(RateProfileConfig{Capacity: 100})
	rp.Access(1, a, 100)
	rp.Access(2, a, 100) // load a; sumYield=100
	rp.Access(3, a, 40)  // hit; sumYield=140
	// b: first access LAR = (30−100)/100 < 0 → bypass regardless.
	if d := rp.Access(4, b, 30); d != Bypass {
		t.Fatalf("decision = %v, want bypass", d)
	}
	// b again: LARP = 60/(1·100) − 1 < 0 → still negative LAR.
	if d := rp.Access(5, b, 30); d != Bypass {
		t.Fatalf("decision = %v, want bypass", d)
	}
	if !rp.Contains(a) {
		t.Fatal("a should remain cached")
	}
}

func TestRateProfileProfileCountBounded(t *testing.T) {
	rp := NewRateProfile(RateProfileConfig{Capacity: 100, MaxProfiles: 32})
	r := rand.New(rand.NewSource(3))
	for i := int64(1); i <= 5000; i++ {
		id := ObjectID(string(rune('A'+r.Intn(26))) + string(rune('A'+r.Intn(26))) + string(rune('A'+r.Intn(26))))
		obj := Object{ID: id, Size: 1000, FetchCost: 1000}
		rp.Access(i, obj, int64(r.Intn(1000)))
	}
	if rp.ProfileCount() > 32 {
		t.Fatalf("profile count %d exceeds bound 32", rp.ProfileCount())
	}
}

func TestRateProfileBeatsNoCacheOnSkewedWorkload(t *testing.T) {
	// End-to-end sanity: on a workload with heavy reuse of one object,
	// Rate-Profile must cut WAN traffic well below the sequence cost.
	hot := testObj("hot", 1000)
	cold1, cold2 := testObj("c1", 1000), testObj("c2", 1000)
	r := rand.New(rand.NewSource(9))
	var reqs []Request
	for i := int64(1); i <= 2000; i++ {
		var acc Access
		switch {
		case r.Float64() < 0.8:
			acc = Access{hot.ID, 500 + int64(r.Intn(500))}
		case r.Float64() < 0.5:
			acc = Access{cold1.ID, int64(r.Intn(100))}
		default:
			acc = Access{cold2.ID, int64(r.Intn(100))}
		}
		reqs = append(reqs, Request{Seq: i, Accesses: []Access{acc}})
	}
	objs := objMap(hot, cold1, cold2)

	run := func(p Policy) int64 {
		sim := &Simulator{Policy: p, Objects: objs}
		res, err := sim.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Acct.WANBytes()
	}
	rpCost := run(NewRateProfile(RateProfileConfig{Capacity: 1000}))
	seqCost := run(NewNoCache())
	if rpCost >= seqCost/5 {
		t.Fatalf("rate-profile WAN %d not ≪ sequence cost %d", rpCost, seqCost)
	}
}

// referenceVictims is selectVictims as it was: every cached entry
// sorted by (RP, id), then the prefix that frees enough.
func referenceVictims(r *RateProfile, t, needed int64) (victims []ObjectID, maxRP float64, freed int64) {
	type cand struct {
		id   ObjectID
		rp   float64
		size int64
	}
	cands := make([]cand, 0, r.entries.len())
	r.entries.each(func(id ObjectID, e **rpEntry) {
		cands = append(cands, cand{id, (*e).rp(t), (*e).obj.Size})
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rp != cands[j].rp {
			return cands[i].rp < cands[j].rp
		}
		return cands[i].id < cands[j].id
	})
	for _, c := range cands {
		if freed >= needed {
			break
		}
		victims = append(victims, c.id)
		freed += c.size
		if c.rp > maxRP {
			maxRP = c.rp
		}
	}
	return victims, maxRP, freed
}

// victimIDs lists selectVictims' entries by id.
func victimIDs(victims []*rpEntry) []ObjectID {
	var ids []ObjectID
	for _, e := range victims {
		ids = append(ids, e.obj.ID)
	}
	return ids
}

// TestSelectVictimsMatchesSort holds the partial selection to the full
// sort on randomised caches: the same victims in the same order, the
// same maximum RP and bytes freed — with RPs drawn from a handful of
// values so that ties (broken by id) are the rule, with needs from one
// byte to more than everything cached, and with an empty cache.
func TestSelectVictimsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 400; round++ {
		r := NewRateProfile(RateProfileConfig{Capacity: 1 << 40})
		n := rng.Intn(60)
		var cached int64
		for i := 0; i < n; i++ {
			size := int64(1+rng.Intn(8)) * 100
			id := ObjectID(fmt.Sprintf("o%03d", rng.Intn(1000)))
			obj := Object{ID: id, Size: size, FetchCost: size}
			if r.Contains(obj) {
				continue
			}
			// Equal sizes, load times and yields recur, so equal RPs do. A
			// first yield above the fetch cost loads into free space.
			if d := r.Access(int64(rng.Intn(4)), obj, int64(2+rng.Intn(3))*size); d != Load {
				t.Fatalf("round %d: %s was not loaded into free space: %s (%s)", round, id, d, r.LastExplain().Reason)
			}
			cached += size
		}
		now := int64(5 + rng.Intn(100))
		for _, needed := range []int64{1, 100, cached / 3, cached, cached + 1, 2*cached + 500} {
			want, wantRP, wantFreed := referenceVictims(r, now, needed)
			got, gotRP, gotFreed := r.selectVictims(now, needed)
			if !reflect.DeepEqual(victimIDs(got), want) || gotRP != wantRP || gotFreed != wantFreed {
				t.Fatalf("round %d, %d cached, needed %d:\n got  %v maxRP %g freed %d\n want %v maxRP %g freed %d",
					round, r.entries.len(), needed, victimIDs(got), gotRP, gotFreed, want, wantRP, wantFreed)
			}
		}
	}
}

// checkHeap holds a Rate-Profile cache's heap to its table: every table
// entry is in the heap at its idx and nothing else is, no entry is
// referenced past the heap's end, and while the heap is ordered, every
// candidate carries its entry's RP at heapT and none goes before its
// parent.
func checkHeap(r *RateProfile) error {
	if len(r.heap) != r.entries.len() {
		return fmt.Errorf("%d in the heap, %d in the table", len(r.heap), r.entries.len())
	}
	var err error
	r.entries.each(func(id ObjectID, p **rpEntry) {
		if e := *p; err == nil && (e.idx >= len(r.heap) || r.heap[e.idx].e != e || e.obj.ID != id) {
			err = fmt.Errorf("%s has idx %d, which holds another entry", id, e.idx)
		}
	})
	if err != nil {
		return err
	}
	for i, c := range r.heap[len(r.heap):cap(r.heap)] {
		if c.e != nil {
			return fmt.Errorf("%s, evicted, is still referenced %d past the end of the heap", c.e.obj.ID, i)
		}
	}
	if !r.heaped {
		return nil
	}
	for i := range r.heap {
		c := &r.heap[i]
		if want := c.e.rp(r.heapT); c.rp != want {
			return fmt.Errorf("%s at %d carries RP %g, its RP at tick %d is %g", c.e.obj.ID, i, c.rp, r.heapT, want)
		}
		if i > 0 && c.before(&r.heap[(i-1)/2]) {
			return fmt.Errorf("%s at %d goes before its parent %s", c.e.obj.ID, i, r.heap[(i-1)/2].e.obj.ID)
		}
	}
	return nil
}

// TestDenseEntriesFollowTheMap drives random sequences of what changes a
// Rate-Profile cache's contents — accesses that load into free space,
// accesses that evict to load, a fresh policy's snapshot restored in
// place (the heap rebuilt from empty), a snapshot restored in place and
// into a fresh policy — and after every step holds the heap, the dense
// slice of entries that selectVictims walks, to the table (checkHeap)
// and selectVictims to referenceVictims, which walks the table. The
// objects carry slots, so restored entries move from the table's map
// into their slots and are evicted from there.
func TestDenseEntriesFollowTheMap(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cfg := RateProfileConfig{Capacity: 4000}
	var loads, evictions, restores int64
	for round := 0; round < 40; round++ {
		r := NewRateProfile(cfg)
		check := func(step int, what string, now int64) {
			t.Helper()
			if err := checkHeap(r); err != nil {
				t.Fatalf("round %d step %d (%s): %v", round, step, what, err)
			}
			for _, needed := range []int64{1, 500, r.used, r.used + 1} {
				want, wantRP, wantFreed := referenceVictims(r, now, needed)
				got, gotRP, gotFreed := r.selectVictims(now, needed)
				if !reflect.DeepEqual(victimIDs(got), want) || gotRP != wantRP || gotFreed != wantFreed {
					t.Fatalf("round %d step %d (%s), needed %d:\n got  %v maxRP %g freed %d\n want %v maxRP %g freed %d",
						round, step, what, needed, victimIDs(got), gotRP, gotFreed, want, wantRP, wantFreed)
				}
			}
		}
		for step, now := 0, int64(0); step < 300; step++ {
			now += int64(rng.Intn(3))
			what := "access"
			switch k := rng.Intn(100); {
			case k < 2:
				what = "restore a fresh policy's snapshot"
				if err := r.RestoreState(NewRateProfile(cfg).SnapshotState()); err != nil {
					t.Fatal(err)
				}
			case k < 6:
				what = "restore in place"
				if err := r.RestoreState(r.SnapshotState()); err != nil {
					t.Fatal(err)
				}
				restores++
			case k < 10:
				what = "restore into a fresh policy"
				fresh := NewRateProfile(cfg)
				if err := fresh.RestoreState(r.SnapshotState()); err != nil {
					t.Fatal(err)
				}
				r = fresh
				restores++
			default:
				size := int64(1+rng.Intn(8)) * 100
				k := rng.Intn(40)
				id := ObjectID(fmt.Sprintf("o%02d", k))
				if e := valueOf(&r.entries, id); e != nil {
					size = e.obj.Size
				}
				before := r.Evictions()
				if r.Access(now, Object{ID: id, Size: size, FetchCost: size, Slot: int32(k + 1)}, int64(rng.Intn(6))*size) == Load {
					loads++
				}
				evictions += r.Evictions() - before
			}
			check(step, what, now+1)
		}
	}
	if loads < 500 || evictions < 200 || restores < 200 {
		t.Fatalf("the sequences loaded %d times, evicted %d and restored %d: too few to mean anything", loads, evictions, restores)
	}
	t.Logf("%d loads, %d evictions, %d restores", loads, evictions, restores)
}

// TestVictimHeapAcrossATick holds the heap a tick's misses share to the
// full sort. Each run feeds one Rate-Profile cache 50–80 accesses at one
// tick — hits, misses bypassed because the victims save more, misses
// that evict to load, zero yields, sizes and yields drawn from a few
// values so that equal RPs, broken by id, are common — then moves the
// tick on by zero (the tick repeats), one or many (it jumps). Now and then a run is interrupted by a fresh
// policy's snapshot restored in place, emptying the cache, or by a
// snapshot restored in place or into a fresh policy, and carries on at
// the same tick. Before every miss that needs victims, selectVictims
// at the access's tick must return referenceVictims' victims, maximum
// RP and bytes freed; the access itself must then explain that maximum
// and evict those victims if it loads; and after every step the heap
// must pass checkHeap.
func TestVictimHeapAcrossATick(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cfg := RateProfileConfig{Capacity: 3000}
	var misses, heapedHits, evictions, restores int
	reasons := map[string]int{}
	for round := 0; round < 30; round++ {
		r := NewRateProfile(cfg)
		now := int64(0)
		for run := 0; run < 30; run++ {
			switch rng.Intn(3) {
			case 1:
				now++
			case 2:
				now += int64(2 + rng.Intn(50))
			}
			accesses := 50 + rng.Intn(31)
			for step := 0; step < accesses; step++ {
				what := "access"
				switch k := rng.Intn(100); {
				case k < 1:
					what = "restore a fresh policy's snapshot"
					if err := r.RestoreState(NewRateProfile(cfg).SnapshotState()); err != nil {
						t.Fatal(err)
					}
				case k < 3:
					what = "restore in place"
					if err := r.RestoreState(r.SnapshotState()); err != nil {
						t.Fatal(err)
					}
					restores++
				case k < 5:
					what = "restore into a fresh policy"
					fresh := NewRateProfile(cfg)
					if err := fresh.RestoreState(r.SnapshotState()); err != nil {
						t.Fatal(err)
					}
					r = fresh
					restores++
				default:
					k := rng.Intn(30)
					size := int64(1+rng.Intn(4)) * 100
					obj := Object{ID: ObjectID(fmt.Sprintf("o%02d", k)), Size: size, FetchCost: size, Slot: int32(k + 1)}
					e := valueOf(&r.entries, obj.ID)
					if e != nil {
						obj = e.obj
						if r.heaped && r.heapT == now {
							heapedHits++
						}
					}
					yield := int64(rng.Intn(4)) * obj.Size / 2
					needed := obj.Size - (cfg.Capacity - r.used)
					miss := e == nil && needed > 0
					var want []ObjectID
					var wantRP float64
					if miss {
						misses++
						var wantFreed int64
						want, wantRP, wantFreed = referenceVictims(r, now, needed)
						got, gotRP, gotFreed := r.selectVictims(now, needed)
						if !reflect.DeepEqual(victimIDs(got), want) || gotRP != wantRP || gotFreed != wantFreed {
							t.Fatalf("round %d run %d step %d, tick %d, %s needs %d:\n got  %v maxRP %g freed %d\n want %v maxRP %g freed %d",
								round, run, step, now, obj.ID, needed, victimIDs(got), gotRP, gotFreed, want, wantRP, wantFreed)
						}
					}
					before := r.Evictions()
					d := r.Access(now, obj, yield)
					evicted := int(r.Evictions() - before)
					evictions += evicted
					if miss {
						what = fmt.Sprintf("miss of %s (%s)", obj.ID, r.LastExplain().Reason)
						reasons[r.LastExplain().Reason]++
						if r.LastExplain().VictimRP != wantRP {
							t.Fatalf("round %d run %d step %d: %s explains victim RP %g, want %g", round, run, step, what, r.LastExplain().VictimRP, wantRP)
						}
						if d == Load {
							for _, id := range want {
								if r.Contains(Object{ID: id}) {
									t.Fatalf("round %d run %d step %d: %s kept victim %s", round, run, step, what, id)
								}
							}
							if evicted != len(want) {
								t.Fatalf("round %d run %d step %d: %s evicted %d, want %d", round, run, step, what, evicted, len(want))
							}
						}
					}
				}
				if err := checkHeap(r); err != nil {
					t.Fatalf("round %d run %d step %d, tick %d (%s): %v", round, run, step, now, what, err)
				}
			}
		}
	}
	if misses < 10000 || heapedHits < 5000 || evictions < 1000 || restores < 500 ||
		reasons[ReasonVictimsSaveMore] < 1000 || reasons[ReasonLARBeatsVictims] < 1000 {
		t.Fatalf("%d misses compared victims (%v), %d hits met an ordered heap, %d evictions, %d restores: too few to mean anything",
			misses, reasons, heapedHits, evictions, restores)
	}
	t.Logf("%d misses compared victims (%v), %d hits met an ordered heap, %d evictions, %d restores", misses, reasons, heapedHits, evictions, restores)
}

// fullCache is a Rate-Profile cache holding 76 objects — the columns the
// federation benchmark's edr-cached workload holds after its 3 000
// traced statements — with no byte free, loaded at ticks 0–75.
func fullCache(tb testing.TB) (*RateProfile, []Object) {
	const cached = 76
	rng := rand.New(rand.NewSource(22))
	objs := make([]Object, cached)
	var capacity int64
	for i := range objs {
		size := int64(1+rng.Intn(64)) << 20
		objs[i] = Object{ID: ObjectID(fmt.Sprintf("edr/photoobj.c%02d", i)), Size: size, FetchCost: size, Slot: int32(i + 1)}
		capacity += size
	}
	r := NewRateProfile(RateProfileConfig{Capacity: capacity})
	for i, obj := range objs {
		if d := r.Access(int64(i), obj, 4*obj.Size); d != Load {
			tb.Fatalf("%s was not loaded: %s", obj.ID, d)
		}
	}
	return r, objs
}

// stmtAccess is one access of a statement and the decision it must get.
type stmtAccess struct {
	obj Object
	hit bool
}

// wideStatement is `select * from frame` against fullCache as the
// edr-cached workload sees it: 73 accesses, 27 of them hits on cached
// objects spread among 46 misses of objects whose fetch cost no yield
// repays, so each miss compares victims and is bypassed.
func wideStatement(cached []Object) []stmtAccess {
	const accesses, hits = 73, 27
	stmt := make([]stmtAccess, accesses)
	for i := range stmt {
		if i*hits%accesses < hits {
			stmt[i] = stmtAccess{cached[i], true}
			continue
		}
		stmt[i].obj = Object{ID: ObjectID(fmt.Sprintf("edr/frame.c%02d", i)), Size: 8 << 20, FetchCost: 1 << 50, Slot: int32(len(cached) + 1 + i)}
	}
	return stmt
}

// accessStatement feeds stmt to r at tick t and fails on a hit that was
// not, or a miss that was not bypassed after comparing victims.
func accessStatement(tb testing.TB, r *RateProfile, t int64, stmt []stmtAccess) {
	for _, a := range stmt {
		d := r.Access(t, a.obj, 4096)
		if a.hit && d != Hit || !a.hit && (d != Bypass || r.LastExplain().Reason != ReasonVictimsSaveMore) {
			tb.Fatalf("tick %d: %s (cached %v): %s (%s)", t, a.obj.ID, a.hit, d, r.LastExplain().Reason)
		}
	}
}

// TestWideMissBuildsOneHeap is the count behind the wide-miss hold: the
// 46 misses of one 73-access statement, all at one tick, share one heap
// of the 76 cached objects, which the statement's 27 hits keep in order,
// and the next statement, at the next tick, builds one more.
func TestWideMissBuildsOneHeap(t *testing.T) {
	r, objs := fullCache(t)
	stmt := wideStatement(objs)
	for tick := int64(len(objs)); tick < int64(len(objs))+3; tick++ {
		before := r.builds
		accessStatement(t, r, tick, stmt)
		if built := r.builds - before; built != 1 {
			t.Fatalf("tick %d: the statement built the heap %d times, want once", tick, built)
		}
		if err := checkHeap(r); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRateProfileMiss is one miss that needs victims: an access to
// an uncached object against fullCache, which the policy bypasses
// because the victims save more. Each op is at a tick of its own, so it
// computes the RPs of the 76 candidates and heaps them — the rebuild a
// query's first such miss pays — and pops the few that would make room.
func BenchmarkRateProfileMiss(b *testing.B) {
	r, objs := fullCache(b)
	// A fetch cost no run's yields repay: its LAR never overtakes the victims' RPs.
	miss := Object{ID: "edr/specobj.z", Size: 8 << 20, FetchCost: 1 << 50, Slot: int32(len(objs) + 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := r.Access(int64(len(objs)+i), miss, 4096); d != Bypass || r.LastExplain().Reason != ReasonVictimsSaveMore {
			b.Fatalf("op %d: %s (%s), want a bypass after comparing victims", i, d, r.LastExplain().Reason)
		}
	}
}

// BenchmarkRateProfileWideMiss is one wideStatement against fullCache,
// at a tick of its own: one heap built, 46 misses taking their victims
// from it, 27 hits keeping it in order.
func BenchmarkRateProfileWideMiss(b *testing.B) {
	r, objs := fullCache(b)
	stmt := wideStatement(objs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accessStatement(b, r, int64(len(objs)+i), stmt)
	}
}

// TestLARTyingVictimsIsBypassed: the paper loads a candidate only when
// every victim's RP is below its LAR, so a LAR equal to the victims'
// maximum RP is bypassed because the victims save more, and one just
// above it loads. The victim v is loaded at t=1 with yield 100, so its
// RP at t=3 is 100/(2·100) = 0.5; the candidate's first access at t=3
// has LAR (y − 50)/100, exactly 0.5 for y = 100.
func TestLARTyingVictimsIsBypassed(t *testing.T) {
	for _, tc := range []struct {
		yield  int64
		want   Decision
		reason string
	}{
		{100, Bypass, ReasonVictimsSaveMore},
		{101, Load, ReasonLARBeatsVictims},
	} {
		r := NewRateProfile(RateProfileConfig{Capacity: 100})
		if d := r.Access(1, testObjCost("v", 100, 50), 100); d != Load {
			t.Fatalf("victim: %s, want load", d)
		}
		d := r.Access(3, testObjCost("c", 100, 50), tc.yield)
		ex := r.LastExplain()
		if d != tc.want || ex.Reason != tc.reason {
			t.Fatalf("yield %d: %s (%s), want %s (%s); LAR %v, victims' RP %v",
				tc.yield, d, ex.Reason, tc.want, tc.reason, ex.LAR, ex.VictimRP)
		}
		if tc.want == Bypass && ex.LAR != ex.VictimRP {
			t.Fatalf("yield %d: LAR %v and victims' RP %v do not tie", tc.yield, ex.LAR, ex.VictimRP)
		}
	}
}

// TestExactFitLoadsIntoFreeSpace: an object exactly as large as an empty
// cache needs no victims, so once its LAR is positive it loads because
// it fits in free space, not because it beats victims.
func TestExactFitLoadsIntoFreeSpace(t *testing.T) {
	r := NewRateProfile(RateProfileConfig{Capacity: 100})
	a := testObj("a", 100)
	for i := int64(1); i <= 50; i++ {
		if r.Access(i, a, 90) != Load {
			continue
		}
		if ex := r.LastExplain(); ex.Reason != ReasonFitsFree {
			t.Fatalf("access %d loads with reason %s, want %s", i, ex.Reason, ReasonFitsFree)
		}
		return
	}
	t.Fatal("the object never loaded in 50 accesses")
}
