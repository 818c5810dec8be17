package core

import (
	"math/rand"
	"testing"

	"bypassyield/internal/obs"
)

// TestTelemetryMirrorsAccounting charges accesses through Account,
// mirrors the accounting into a registry and checks the registry agrees
// with the Figure-1 flows, including D_A = D_S + D_C and the savings
// against always-bypass.
func TestTelemetryMirrorsAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	obj := Object{ID: "edr/photoobj", Site: "photo", Size: 1000, FetchCost: 1000}

	var acct Accounting
	seq := []struct {
		yield int64
		d     Decision
	}{
		{100, Bypass}, {200, Load}, {300, Hit}, {50, Bypass}, {400, Hit},
	}
	for _, query := range [][]int{{0, 1, 2}, {3, 4}} {
		q := Accounting{Queries: 1}
		for _, i := range query {
			if err := Account(&q, obj, seq[i].yield, seq[i].d); err != nil {
				t.Fatal(err)
			}
		}
		acct.Add(q)
		tel.Mirror("test-policy", acct)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("core.bypass_bytes", ""); got != acct.BypassBytes {
		t.Fatalf("bypass_bytes = %d, want %d", got, acct.BypassBytes)
	}
	if got := snap.CounterValue("core.fetch_bytes", ""); got != acct.FetchBytes {
		t.Fatalf("fetch_bytes = %d, want %d", got, acct.FetchBytes)
	}
	if got := snap.CounterValue("core.cache_bytes", ""); got != acct.CacheBytes {
		t.Fatalf("cache_bytes = %d, want %d", got, acct.CacheBytes)
	}
	if got := snap.CounterValue("core.yield_bytes", ""); got != acct.YieldBytes {
		t.Fatalf("yield_bytes = %d, want %d", got, acct.YieldBytes)
	}
	// Conservation: D_A = D_S + D_C (uniform network).
	da := snap.CounterValue("core.bypass_bytes", "") + snap.CounterValue("core.cache_bytes", "")
	if da != acct.DeliveredBytes() {
		t.Fatalf("D_A from registry = %d, accounting = %d", da, acct.DeliveredBytes())
	}
	// Per-verdict decision counts.
	for verdict, want := range map[string]int64{"bypass": 2, "load": 1, "hit": 2} {
		if got := snap.CounterValue("core.decisions", "test-policy/"+verdict); got != want {
			t.Fatalf("decisions[%s] = %d, want %d", verdict, got, want)
		}
	}
	if got := snap.CounterValue("core.accesses", ""); got != acct.Accesses {
		t.Fatalf("accesses = %d, want %d", got, acct.Accesses)
	}
	// Savings against always-bypass, whose WAN on a uniform network is
	// D_A: signed, since this stream loaded at a loss (WAN 150 bypassed
	// + 1 000 fetched against 1 050 delivered).
	if got := snap.GaugeValue("core.bytes_saved_vs_bypass"); got != acct.YieldBytes-acct.WANBytes() || got != -100 {
		t.Fatalf("core.bytes_saved_vs_bypass = %d, want D_A %d − WAN %d = −100", got, acct.YieldBytes, acct.WANBytes())
	}
	// No eviction yet, so no eviction label; the first one brings it.
	for _, c := range snap.Counters {
		if c.Name == "core.evictions" {
			t.Fatalf("core.evictions{%s} = %d before any eviction", c.Label, c.Value)
		}
	}
	acct.Evictions = 3
	tel.Mirror("test-policy", acct)
	if got := reg.Snapshot().CounterValue("core.evictions", "test-policy"); got != 3 {
		t.Fatalf("core.evictions{test-policy} = %d, want 3", got)
	}
}

func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.Mirror("p", Accounting{Accesses: 1, Hits: 1, YieldBytes: 1, CacheBytes: 1})
	tel.RecordForced("s", 1)
	tel.RecordFailedLeg("s")
	tel.EpisodeOpened()
	tel.EpisodeClosed()
	if NewTelemetry(nil) != nil {
		t.Fatal("NewTelemetry(nil) should be nil (free no-op)")
	}
}

// TestSimulatorTelemetry runs a tiny trace through the Simulator with
// telemetry attached to the policy and checks the policy publishes its
// episode churn while the Simulator drives it.
func TestSimulatorTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	obj := Object{ID: "o1", Size: 100, FetchCost: 100}
	objs := map[ObjectID]Object{"o1": obj}
	pol := NewRateProfile(RateProfileConfig{Capacity: 1000, Episodes: EpisodeConfig{K: 2}})
	pol.SetTelemetry(NewTelemetry(reg))
	var reqs []Request
	for i := int64(1); i <= 20; i++ {
		seq := i
		if i > 10 {
			seq = i + 10 // a gap > K forces an episode close/reopen
		}
		reqs = append(reqs, Request{Seq: seq, Accesses: []Access{{Object: "o1", Yield: 90}}})
	}
	sim := &Simulator{Policy: pol, Objects: objs}
	if _, err := sim.Run(reqs); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	opened, closed := snap.CounterValue("core.episodes_opened", ""), snap.CounterValue("core.episodes_closed", "")
	if opened == 0 {
		t.Fatal("no episodes opened")
	}
	if closed > opened {
		t.Fatalf("episodes closed (%d) > opened (%d)", closed, opened)
	}
}

// TestShadowAlwaysBypassAccounting: the always-bypass baseline needs no
// model of its own. Charged through Account, always-bypass's WAN on a
// uniform network is the sequence cost Σ yields, which is the live
// accounting's D_A whatever the live decisions were, so the savings
// are YieldBytes − WANBytes(), signed.
func TestShadowAlwaysBypassAccounting(t *testing.T) {
	charge := func(a *Accounting, obj Object, yield int64, d Decision) {
		t.Helper()
		if err := Account(a, obj, yield, d); err != nil {
			t.Fatal(err)
		}
	}
	o := testObj("o1", 1000)
	var live, always Accounting
	for _, a := range []struct {
		yield int64
		d     Decision
	}{{400, Bypass}, {600, Load}, {300, Hit}} {
		charge(&live, o, a.yield, a.d)
		charge(&always, o, a.yield, Bypass)
	}
	var seq int64 = 400 + 600 + 300
	if always.WANBytes() != seq || live.YieldBytes != seq {
		t.Fatalf("always-bypass WAN = %d, live D_A = %d, want both the sequence cost %d", always.WANBytes(), live.YieldBytes, seq)
	}
	// This live stream loaded at a loss: 400 bypassed + 1 000 fetched.
	if realized := live.WANBytes(); realized != 1400 || live.YieldBytes-realized != -100 {
		t.Fatalf("realized WAN = %d, saved vs always-bypass = %d, want 1400 and −100", realized, live.YieldBytes-realized)
	}

	// Any decisions over uniform objects: always-bypass's WAN is D_A.
	rng := rand.New(rand.NewSource(3))
	objs := []Object{testObj("a", 500), testObj("b", 2000), testObj("c", 70)}
	live, always = Accounting{}, Accounting{}
	for i := 0; i < 2000; i++ {
		obj := objs[rng.Intn(len(objs))]
		y := rng.Int63n(obj.Size) + 1
		charge(&live, obj, y, Decision(rng.Intn(3)))
		charge(&always, obj, y, Bypass)
	}
	if always.WANBytes() != live.YieldBytes {
		t.Fatalf("always-bypass WAN %d != live D_A %d over a uniform stream", always.WANBytes(), live.YieldBytes)
	}

	// The identity needs the uniform network: a cost-scaled object ships
	// its yield at its per-byte cost, so its always-bypass WAN is not D_A.
	var scaled Accounting
	charge(&scaled, testObjCost("c", 1000, 3000), 400, Bypass)
	if scaled.WANBytes() != 1200 || scaled.YieldBytes != 400 {
		t.Fatalf("cost-scaled bypass = WAN %d, D_A %d, want 1200 and 400", scaled.WANBytes(), scaled.YieldBytes)
	}
}

// TestShadowTelemetryGauges: core.bytes_saved_vs_bypass is the one
// savings figure left. It moves only on Mirror, reads D_A − (D_S + D_L),
// does not move when nothing new is mirrored, and the deleted shadow
// metrics are not registered.
func TestShadowTelemetryGauges(t *testing.T) {
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	var acct Accounting
	o := testObj("o1", 1000)
	for _, a := range []struct {
		yield int64
		d     Decision
	}{{400, Bypass}, {600, Load}} {
		if err := Account(&acct, o, a.yield, a.d); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().GaugeValue("core.bytes_saved_vs_bypass"); got != 0 {
		t.Fatalf("gauge moved before Mirror: %d", got)
	}
	tel.Mirror("p", acct)
	tel.Mirror("p", acct) // nothing new: nothing moves
	snap := reg.Snapshot()
	if got := snap.GaugeValue("core.bytes_saved_vs_bypass"); got != 1000-1400 {
		t.Fatalf("gauge core.bytes_saved_vs_bypass = %d, want D_A 1000 − WAN 1400", got)
	}
	// Always-bypass's WAN is the yield counter on a uniform network.
	if got := snap.CounterValue("core.yield_bytes", ""); got != 1000 {
		t.Fatalf("core.yield_bytes = %d, want 1000", got)
	}
	gone := map[string]bool{"core.shadow_wan_bytes": true, "core.optbound_bytes": true, "core.competitive_ratio_milli": true}
	for _, c := range snap.Counters {
		if gone[c.Name] {
			t.Fatalf("deleted shadow counter registered: %+v", c)
		}
	}
	for _, g := range snap.Gauges {
		if gone[g.Name] {
			t.Fatalf("deleted shadow gauge registered: %+v", g)
		}
	}
}
