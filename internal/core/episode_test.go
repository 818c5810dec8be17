package core

import (
	"math"
	"testing"
)

func newTestTable(cfg EpisodeConfig, maxProfiles int) *profileTable {
	return newProfileTable(cfg, maxProfiles)
}

func TestLARPFirstAccess(t *testing.T) {
	// First access of an episode: dt clamps to 1.
	// LARP = y/(1·s) − f/s = (y − f)/s.
	pt := newTestTable(DefaultEpisodeConfig(), 0)
	obj := testObj("a", 100)
	lar := pt.observe(10, obj, 60).LAR
	want := (60.0 - 100.0) / 100.0 // -0.4
	if !almostEqual(lar, want) {
		t.Fatalf("LAR after first access = %v, want %v", lar, want)
	}
}

func TestLARPGrowsWithinEpisode(t *testing.T) {
	// Two quick accesses: sum 200 over dt=1 at t=11 (start=10):
	// LARP = 200/(1·100) − 1 = 1.0. Running max is positive now.
	pt := newTestTable(DefaultEpisodeConfig(), 0)
	obj := testObj("a", 100)
	pt.observe(10, obj, 100)
	lar := pt.observe(11, obj, 100).LAR
	if !almostEqual(lar, 1.0) {
		t.Fatalf("LAR = %v, want 1.0", lar)
	}
}

func TestEpisodeIdleSplit(t *testing.T) {
	// Heuristic (2): an access more than K queries after the last one
	// closes the episode; the closed episode's LAR enters the history.
	cfg := DefaultEpisodeConfig()
	cfg.K = 100
	pt := newTestTable(cfg, 0)
	obj := testObj("a", 100)
	pt.observe(1, obj, 100)
	pt.observe(2, obj, 100) // episode 1 max LARP = 1.0
	p := pt.get(obj)
	if len(p.past) != 0 {
		t.Fatalf("history before idle split: %v", p.past)
	}
	pt.observe(200, obj, 50) // idle gap 198 > K → new episode
	if len(p.past) != 1 {
		t.Fatalf("history after idle split has %d episodes, want 1", len(p.past))
	}
	if !almostEqual(p.past[0], 1.0) {
		t.Fatalf("closed episode LAR = %v, want 1.0", p.past[0])
	}
	if p.start != 200 {
		t.Fatalf("new episode start = %d, want 200", p.start)
	}
}

// TestEpisodeIdleGapOfExactlyK: heuristic (2) closes an episode when
// the object "has not been accessed during the last k queries", so an
// idle gap of exactly K keeps it open and K+1 closes it. The yields
// never repay the fetch cost, so the running max stays negative and
// heuristic (1) cannot fire.
func TestEpisodeIdleGapOfExactlyK(t *testing.T) {
	cfg := DefaultEpisodeConfig()
	cfg.K = 100
	pt := newTestTable(cfg, 0)
	obj := testObj("a", 100)
	pt.observe(1, obj, 1)
	pt.observe(1+cfg.K, obj, 1)
	p := pt.get(obj)
	if len(p.past) != 0 || p.start != 1 {
		t.Fatalf("after an idle gap of exactly K: %d closed episodes, open one started at %d; want 0 and 1",
			len(p.past), p.start)
	}
	next := 1 + cfg.K + cfg.K + 1
	pt.observe(next, obj, 1)
	if len(p.past) != 1 || p.start != next {
		t.Fatalf("after an idle gap of K+1: %d closed episodes, open one started at %d; want 1 and %d",
			len(p.past), p.start, next)
	}
}

func TestEpisodeRateDecaySplit(t *testing.T) {
	// Heuristic (1): once the running max is positive, a LARP below
	// C·max closes the episode and a new one begins at that access.
	cfg := DefaultEpisodeConfig()
	cfg.C = 0.5
	cfg.K = 1 << 40 // disable idle split
	pt := newTestTable(cfg, 0)
	obj := testObj("a", 100)
	pt.observe(1, obj, 200) // LARP = 200/100 − 1 = 1.0; max = 1.0
	p := pt.get(obj)
	if !almostEqual(p.maxLARP, 1.0) {
		t.Fatalf("maxLARP = %v, want 1.0", p.maxLARP)
	}
	// t=20: sum=210 over dt=19 → 210/1900 − 1 ≈ −0.889 < 0.5·1.0.
	pt.observe(20, obj, 10)
	if len(p.past) != 1 || !almostEqual(p.past[0], 1.0) {
		t.Fatalf("episode not closed by rate decay: past = %v", p.past)
	}
	// The new episode starts at t=20 with the triggering access.
	if p.start != 20 || p.sumYield != 10 {
		t.Fatalf("new episode start=%d sum=%d, want 20/10", p.start, p.sumYield)
	}
}

func TestRateDecayBoundaryExactlyCDoesNotSplit(t *testing.T) {
	// Heuristic (1) is a strict inequality: the episode ends only when
	// LARP < C·maxLARP, so LARP landing EXACTLY on the boundary must
	// keep the episode open. All quantities here are exactly
	// representable in float64, so the comparison is exact.
	cfg := DefaultEpisodeConfig()
	cfg.C = 0.5
	cfg.K = 1 << 40 // disable idle split
	pt := newTestTable(cfg, 0)
	obj := testObj("a", 100)
	pt.observe(1, obj, 300) // LARP = (300−100)/(1·100) = 2.0; max = 2.0
	p := pt.get(obj)
	if !almostEqual(p.maxLARP, 2.0) {
		t.Fatalf("maxLARP = %v, want 2.0", p.maxLARP)
	}
	// t=3: dt=2, sum=300 → LARP = 200/200 = 1.0 == 0.5·2.0 exactly.
	pt.observe(3, obj, 0)
	if len(p.past) != 0 {
		t.Fatalf("episode split at LARP == C·maxLARP: past = %v", p.past)
	}
	if !p.open || p.start != 1 {
		t.Fatalf("episode state disturbed at the boundary: open=%v start=%d", p.open, p.start)
	}
	// One epsilon below the boundary (t=4: LARP = 200/300 < 1.0) the
	// split fires.
	pt.observe(4, obj, 0)
	if len(p.past) != 1 || !almostEqual(p.past[0], 2.0) {
		t.Fatalf("episode not split just below the boundary: past = %v", p.past)
	}
	if p.start != 4 {
		t.Fatalf("new episode start = %d, want 4", p.start)
	}
}

func TestRateDecayBoundaryZeroMaxDoesNotSplit(t *testing.T) {
	// The guard is also strict: maxLARP must be > 0 for heuristic (1)
	// to arm. An episode sitting exactly at maxLARP == 0 (the yield
	// exactly paid off the fetch cost, no more) never rate-splits.
	cfg := DefaultEpisodeConfig()
	cfg.C = 0.5
	cfg.K = 1 << 40
	pt := newTestTable(cfg, 0)
	obj := testObj("a", 100)
	pt.observe(1, obj, 100) // LARP = (100−100)/100 = 0 exactly
	p := pt.get(obj)
	if p.maxLARP != 0 {
		t.Fatalf("maxLARP = %v, want exactly 0", p.maxLARP)
	}
	for i := int64(2); i < 30; i += 3 {
		pt.observe(i, obj, 0)
	}
	if len(p.past) != 0 {
		t.Fatalf("zero-max episode was rate-split: past = %v", p.past)
	}
}

func TestRateDecaySplitRespectsConfiguredC(t *testing.T) {
	// The boundary moves with C: with C = 0.25 a decay to half the max
	// (which splits at C = 0.5) keeps the episode open, and only a
	// decay below a quarter of the max closes it.
	cfg := DefaultEpisodeConfig()
	cfg.C = 0.25
	cfg.K = 1 << 40
	pt := newTestTable(cfg, 0)
	obj := testObj("a", 100)
	pt.observe(1, obj, 300) // max = 2.0
	p := pt.get(obj)
	pt.observe(4, obj, 0) // LARP = 200/300 ≈ 0.667 ≥ 0.25·2.0
	if len(p.past) != 0 {
		t.Fatalf("episode split above the C=0.25 boundary: past = %v", p.past)
	}
	pt.observe(9, obj, 0) // LARP = 200/800 = 0.25 < 0.25·2.0 = 0.5 → split
	if len(p.past) != 1 {
		t.Fatalf("episode not split below the C=0.25 boundary: past = %v", p.past)
	}
}

func TestEpisodeInfo(t *testing.T) {
	cfg := DefaultEpisodeConfig()
	cfg.K = 10
	pt := newTestTable(cfg, 0)
	obj := testObj("a", 100)
	if pt.get(obj) != nil {
		t.Fatal("an object never observed has a profile")
	}
	if ex := pt.observe(1, obj, 100); ex.Episodes != 0 || ex.EpisodePhase != "open" {
		t.Fatalf("open-episode info = %d/%q, want 0/open", ex.Episodes, ex.EpisodePhase)
	}
	pt.onLoad(obj)
	if p := pt.get(obj); p.open || len(p.past) != 1 {
		t.Fatalf("post-load profile open %t with %d episodes, want closed with 1", p.open, len(p.past))
	}
	if ex := pt.observe(30, obj, 100); ex.Episodes != 1 || ex.EpisodePhase != "open" {
		t.Fatalf("reopened info = %d/%q, want 1/open", ex.Episodes, ex.EpisodePhase)
	}
}

func TestNegativeMaxDoesNotSplit(t *testing.T) {
	// While the load penalty has not been overcome (max LARP ≤ 0)
	// heuristic (1) must not fire — the paper observes the rate only
	// increases until LARP > 0.
	cfg := DefaultEpisodeConfig()
	cfg.K = 1 << 40
	pt := newTestTable(cfg, 0)
	obj := testObj("a", 1000)
	pt.observe(1, obj, 10) // LARP = (10−1000)/1000 < 0
	pt.observe(5, obj, 10)
	pt.observe(9, obj, 10)
	p := pt.get(obj)
	if len(p.past) != 0 {
		t.Fatalf("negative-rate episode was split: past = %v", p.past)
	}
}

func TestNegativeEpisodeRecordsZero(t *testing.T) {
	// An episode whose rate never overcame the load cost records a
	// LAR of zero (see DESIGN.md): otherwise a history of light
	// probing (each episode's raw maximum ≈ −f/s) would permanently
	// veto loading the object during a later genuine burst.
	cfg := DefaultEpisodeConfig()
	cfg.K = 10
	pt := newTestTable(cfg, 0)
	obj := testObj("a", 1000)
	// Several tiny probe episodes split by idleness.
	for i := int64(0); i < 4; i++ {
		pt.observe(1+i*100, obj, 5)
	}
	p := pt.get(obj)
	for i, v := range p.past {
		if v != 0 {
			t.Fatalf("probe episode %d recorded LAR %v, want 0", i, v)
		}
	}
	// A burst can now push the LAR positive despite the history.
	lar := 0.0
	for i := int64(0); i < 30; i++ {
		lar = pt.observe(1000+i*2, obj, 100).LAR
	}
	if lar <= 0 {
		t.Fatalf("burst LAR = %v, want positive despite probe history", lar)
	}
}

func TestLARWeightsRecentEpisodes(t *testing.T) {
	// Two closed episodes with LARs 1.0 (old) and 0.0 (recent), no
	// open episode: with γ=0.5 LAR = (1·0.0 + 0.5·1.0)/(1+0.5) = 1/3.
	p := &profile{past: []float64{1.0, 0.0}}
	if got := p.lar(0.5); !almostEqual(got, 1.0/3.0) {
		t.Fatalf("lar = %v, want 1/3", got)
	}
}

func TestLAROpenEpisodeDominates(t *testing.T) {
	// Open episode maxLARP=2.0 plus history [1.0]:
	// LAR = (2.0 + 0.5·1.0)/(1 + 0.5) = 5/3.
	p := &profile{open: true, started: true, maxLARP: 2.0, past: []float64{1.0}}
	if got := p.lar(0.5); !almostEqual(got, 5.0/3.0) {
		t.Fatalf("lar = %v, want 5/3", got)
	}
}

func TestLAREmptyProfile(t *testing.T) {
	p := &profile{}
	if got := p.lar(0.5); got != 0 {
		t.Fatalf("lar of empty profile = %v, want 0", got)
	}
}

func TestEpisodeHistoryBounded(t *testing.T) {
	cfg := DefaultEpisodeConfig()
	cfg.K = 10
	cfg.MaxEpisodes = 3
	pt := newTestTable(cfg, 0)
	obj := testObj("a", 100)
	// Create many episodes via idle splits.
	for i := int64(0); i < 20; i++ {
		pt.observe(1+i*1000, obj, 100)
		pt.observe(2+i*1000, obj, 100)
	}
	p := pt.get(obj)
	if len(p.past) > cfg.MaxEpisodes {
		t.Fatalf("episode history %d exceeds bound %d", len(p.past), cfg.MaxEpisodes)
	}
}

func TestProfilePruningBound(t *testing.T) {
	cfg := DefaultEpisodeConfig()
	pt := newTestTable(cfg, 16)
	for i := 0; i < 200; i++ {
		obj := testObj(string(rune('A'+i%26))+string(rune('a'+i/26)), 100)
		pt.observe(int64(i+1), obj, 10)
	}
	if pt.size() > 16 {
		t.Fatalf("profile table size %d exceeds bound 16", pt.size())
	}
}

func TestProfilePruningKeepsRecent(t *testing.T) {
	cfg := DefaultEpisodeConfig()
	pt := newTestTable(cfg, 4)
	ids := []string{"a", "b", "c", "d", "e"}
	for i, id := range ids {
		pt.observe(int64(i+1), testObj(id, 100), 10)
	}
	// "a" (oldest) must have been pruned; "e" (newest) must remain.
	if pt.get(testObj("a", 100)) != nil {
		t.Fatal("oldest profile should have been pruned")
	}
	if pt.get(testObj("e", 100)) == nil {
		t.Fatal("newest profile should have been kept")
	}
}

// slotted builds an object at slot slot, so a profile table visits it
// in slot order: the tests below place ties where a wrong comparison
// would pick another profile.
func slotted(id string, slot int32) Object {
	o := testObj(id, 100)
	o.Slot = slot
	return o
}

// tracked reports which of ids have a profile in pt.
func tracked(pt *profileTable, ids ...string) map[string]bool {
	out := map[string]bool{}
	for _, id := range ids {
		out[id] = pt.byObj.findID(ObjectID(id)) != nil
	}
	return out
}

// TestProfilePruningBoundaries pins prune at its exact boundaries, with
// an idle horizon of 4K = 40 and a bound of two profiles (three for the
// tie-break).
func TestProfilePruningBoundaries(t *testing.T) {
	cfg := DefaultEpisodeConfig()
	cfg.K = 10
	t.Run("no prune at the bound", func(t *testing.T) {
		// Two profiles are the bound, not past it: a, idle past the
		// horizon, is not pruned.
		pt := newTestTable(cfg, 2)
		pt.observe(1, slotted("a", 1), 10)
		pt.observe(42, slotted("b", 2), 10)
		if got := tracked(pt, "a", "b"); !got["a"] || !got["b"] {
			t.Fatalf("tracked %v; a table at its bound pruned", got)
		}
	})
	t.Run("idle exactly 4K survives", func(t *testing.T) {
		// a and b are idle exactly 4K when c arrives: the horizon keeps
		// both, and only the bound drops one (a, the smaller id).
		pt := newTestTable(cfg, 2)
		pt.observe(1, slotted("a", 1), 10)
		pt.observe(1, slotted("b", 2), 10)
		pt.observe(41, slotted("c", 3), 10)
		if got := tracked(pt, "a", "b", "c"); got["a"] || !got["b"] || !got["c"] {
			t.Fatalf("tracked %v; want b and c", got)
		}
	})
	t.Run("pruning stops at the bound", func(t *testing.T) {
		pt := newTestTable(cfg, 2)
		for i, id := range []string{"a", "b", "c"} {
			pt.observe(int64(i+1), slotted(id, int32(i+1)), 10)
		}
		if pt.size() != 2 {
			t.Fatalf("%d profiles after pruning, want the bound 2", pt.size())
		}
	})
	t.Run("ties go by smallest id", func(t *testing.T) {
		// b, a and c were last accessed at once and are visited in that
		// order: a, neither first nor last, is the one dropped.
		pt := newTestTable(cfg, 3)
		pt.observe(1, slotted("b", 1), 10)
		pt.observe(1, slotted("a", 2), 10)
		pt.observe(1, slotted("c", 3), 10)
		pt.observe(2, slotted("d", 4), 10)
		if got := tracked(pt, "a", "b", "c", "d"); got["a"] || !got["b"] || !got["c"] || !got["d"] {
			t.Fatalf("tracked %v; want a dropped", got)
		}
	})
}

// TestNoDecaySplitAtZeroMax: heuristic (1) ends an episode only once
// its running maximum LARP is positive. A live stream of non-negative
// yields cannot fall below a maximum of exactly 0 (Σy only grows), but a
// restored profile can hold one with Σy below the fetch cost: its next
// negative LARP must not split the episode.
func TestNoDecaySplitAtZeroMax(t *testing.T) {
	pt := newTestTable(DefaultEpisodeConfig(), 0)
	obj := testObj("a", 100)
	*pt.byObj.put(obj) = &profile{open: true, started: true, start: 1, lastAccess: 1}
	ex := pt.observe(2, obj, 10) // LARP = (10 − 100)/(1·100) < 0
	if p := pt.get(obj); ex.Episodes != 0 || p.start != 1 || p.maxLARP != 0 {
		t.Fatalf("episodes %d, start %d, max LARP %v; want the episode from t=1 still open at max 0",
			ex.Episodes, p.start, p.maxLARP)
	}
}

func TestOnLoadClosesEpisode(t *testing.T) {
	pt := newTestTable(DefaultEpisodeConfig(), 0)
	obj := testObj("a", 100)
	pt.observe(1, obj, 100)
	pt.observe(2, obj, 100)
	pt.onLoad(obj)
	p := pt.get(obj)
	if p.open {
		t.Fatal("episode still open after load")
	}
	if len(p.past) != 1 {
		t.Fatalf("history after load has %d episodes, want 1", len(p.past))
	}
}

func TestOnLoadUnknownObjectIsNoop(t *testing.T) {
	pt := newTestTable(DefaultEpisodeConfig(), 0)
	pt.onLoad(testObj("ghost", 100)) // must not panic
}

func TestEpisodeConfigFillDefaults(t *testing.T) {
	var cfg EpisodeConfig
	cfg.fill()
	def := DefaultEpisodeConfig()
	if cfg.C != def.C || cfg.K != def.K || cfg.Gamma != def.Gamma || cfg.MaxEpisodes != def.MaxEpisodes {
		t.Fatalf("fill() = %+v, want defaults %+v", cfg, def)
	}
}

func TestLARPNeverNaN(t *testing.T) {
	pt := newTestTable(DefaultEpisodeConfig(), 0)
	obj := testObj("a", 100)
	for i := int64(1); i < 100; i += 7 {
		lar := pt.observe(i, obj, 0).LAR // zero-yield accesses
		if math.IsNaN(lar) || math.IsInf(lar, 0) {
			t.Fatalf("LAR is not finite at t=%d: %v", i, lar)
		}
	}
}
