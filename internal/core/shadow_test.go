package core

import (
	"math/rand"
	"testing"

	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
)

func TestShadowNilIsNoOp(t *testing.T) {
	var s *ShadowSet
	s.Access(testObj("o1", 100), 10) // must not panic
	s.adopt(10)
	if st := s.Stats(Accounting{BypassBytes: 10}); st != (ShadowStats{}) {
		t.Fatalf("nil shadow set reads %+v, want zero", st)
	}
}

// shadowRun feeds s and an accounting the same (object, yield, live
// decision) accesses, as the Decider does, and returns the accounting.
func shadowRun(t *testing.T, s *ShadowSet, obj Object, accesses ...[2]int64) Accounting {
	t.Helper()
	var a Accounting
	for _, acc := range accesses {
		if err := Account(&a, obj, acc[0], Decision(acc[1])); err != nil {
			t.Fatal(err)
		}
		s.Access(obj, acc[0])
	}
	return a
}

func TestShadowAlwaysBypassAccounting(t *testing.T) {
	// The always-bypass WAN must equal the sequence cost (Σ cost-scaled
	// yields) regardless of the live decisions.
	s := NewShadowSet()
	acct := shadowRun(t, s, testObj("o1", 1000),
		[2]int64{400, int64(Bypass)}, [2]int64{600, int64(Load)}, [2]int64{300, int64(Hit)})
	var seq int64 = 400 + 600 + 300
	st := s.Stats(acct)
	if st.BypassWANBytes != seq {
		t.Fatalf("always-bypass WAN = %d, want sequence cost %d", st.BypassWANBytes, seq)
	}
	// Savings identity: always-bypass WAN − realized WAN, signed (this
	// live stream loaded at a loss).
	realized := acct.WANBytes() // 400 bypass + 1000 fetch
	if realized != 1400 {
		t.Fatalf("realized WAN = %d, want 1400", realized)
	}
	if st.SavedVsBypassBytes != seq-realized {
		t.Fatalf("saved vs always-bypass = %d, want %d", st.SavedVsBypassBytes, seq-realized)
	}
	// A cost-scaled object ships its yield at its per-byte cost.
	s = NewShadowSet()
	acct = shadowRun(t, s, testObjCost("c", 1000, 3000), [2]int64{400, int64(Bypass)})
	if st := s.Stats(acct); st.BypassWANBytes != 1200 || st.SavedVsBypassBytes != 0 {
		t.Fatalf("cost-scaled always-bypass = %+v, want WAN 1200 and nothing saved", st)
	}
}

func TestShadowOptBoundAndRatio(t *testing.T) {
	s := NewShadowSet()
	// o1: bypass demand 700 < fetch → bound contribution 700.
	acct := shadowRun(t, s, testObj("o1", 1000), [2]int64{700, int64(Bypass)})
	// o2: demand 1500+1500 = 3000 > fetch 2000 → contribution capped at 2000.
	acct.Add(shadowRun(t, s, testObj("o2", 2000), [2]int64{1500, int64(Bypass)}, [2]int64{1500, int64(Bypass)}))
	st := s.Stats(acct)
	if st.OptBoundBytes != 700+2000 {
		t.Fatalf("bound = %d, want 2700", st.OptBoundBytes)
	}
	// The bound never exceeds realized WAN, so the ratio is ≥ 1 for
	// any live decision stream (here all-bypass: realized 3700).
	if acct.WANBytes() < st.OptBoundBytes {
		t.Fatalf("bound %d exceeds realized %d", st.OptBoundBytes, acct.WANBytes())
	}
	if want := acct.WANBytes() * 1000 / st.OptBoundBytes; st.CompetitiveRatioMilli != want || want < 1000 {
		t.Fatalf("competitive ratio = %d milli, want %d (≥ 1000)", st.CompetitiveRatioMilli, want)
	}
}

func TestShadowRatioAtLeastOneUnderRandomStream(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	objs := []Object{testObj("a", 500), testObj("b", 2000), testObjCost("c", 1000, 3000)}
	s := NewShadowSet()
	d := NewDecider(NewRateProfile(RateProfileConfig{Capacity: 2500}), nil, s, nil)
	for i := 1; i <= 2000; i++ {
		o := objs[r.Intn(len(objs))]
		d.Begin(int64(i), "")
		if _, err := d.Access(o, r.Int63n(o.Size+1)); err != nil {
			t.Fatal(err)
		}
		d.End()
	}
	st := s.Stats(d.Acct)
	if st.OptBoundBytes <= 0 {
		t.Fatal("bound never grew")
	}
	if st.CompetitiveRatioMilli < 1000 {
		t.Fatalf("competitive ratio = %d milli, want ≥ 1000", st.CompetitiveRatioMilli)
	}
}

// TestShadowTelemetryGauges: the shadow metrics a registry carries are
// a reading of the set (Stats) mirrored, and move only when read again.
// always-bypass is the one baseline.
func TestShadowTelemetryGauges(t *testing.T) {
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	s := NewShadowSet()
	acct := shadowRun(t, s, testObj("o1", 1000), [2]int64{400, int64(Bypass)}, [2]int64{600, int64(Load)})
	if got := reg.Snapshot().GaugeValue("core.bytes_saved_vs_bypass"); got != 0 {
		t.Fatalf("gauge moved before Mirror: %d", got)
	}
	st := s.Stats(acct)
	tel.Mirror("p", acct, st)
	tel.Mirror("p", acct, s.Stats(acct)) // nothing new: nothing moves
	snap := reg.Snapshot()
	if got := snap.GaugeValue("core.bytes_saved_vs_bypass"); got != st.SavedVsBypassBytes || got != 1000-1400 {
		t.Fatalf("gauge core.bytes_saved_vs_bypass = %d, want %d", got, st.SavedVsBypassBytes)
	}
	if got := snap.CounterValue("core.optbound_bytes", ""); got != st.OptBoundBytes {
		t.Fatalf("counter core.optbound_bytes = %d, want %d", got, st.OptBoundBytes)
	}
	if got := snap.CounterValue("core.shadow_wan_bytes", "always-bypass"); got != 1000 {
		t.Fatalf("shadow_wan_bytes{always-bypass} = %d, want 1000", got)
	}
	for _, c := range snap.Counters {
		if c.Name == "core.shadow_wan_bytes" && c.Label != "always-bypass" {
			t.Fatalf("core.shadow_wan_bytes carries a second baseline: %+v", c)
		}
	}
	wantRatio := acct.WANBytes() * 1000 / st.OptBoundBytes
	if got := snap.GaugeValue("core.competitive_ratio_milli"); got != wantRatio {
		t.Fatalf("competitive_ratio_milli = %d, want %d", got, wantRatio)
	}
}

func TestSimulatorLedgerAndShadows(t *testing.T) {
	reg := obs.NewRegistry()
	led := ledger.New(1024)
	objs := []Object{testObj("a", 500), testObj("b", 2000)}
	r := rand.New(rand.NewSource(3))
	var reqs []Request
	for i := 1; i <= 300; i++ {
		o := objs[r.Intn(len(objs))]
		reqs = append(reqs, Request{Seq: int64(i), Accesses: []Access{{Object: o.ID, Yield: r.Int63n(o.Size)}}})
	}
	sim := &Simulator{
		Policy:  NewRateProfile(RateProfileConfig{Capacity: 2000}),
		Objects: objMap(objs...),
		Ledger:  led,
	}
	res, err := sim.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	recs := led.Snapshot()
	if uint64(len(recs)) != uint64(res.Acct.Accesses) {
		t.Fatalf("ledger has %d records, want one per access (%d)", len(recs), res.Acct.Accesses)
	}
	// Per-decision realized yields sum to D_A (uniform network).
	var sumYield, sumWAN int64
	for _, rec := range recs {
		sumYield += rec.Yield
		sumWAN += rec.WANCost
		if rec.Policy != "rate-profile" || rec.Reason == "" {
			t.Fatalf("record missing explanation: %+v", rec)
		}
	}
	if sumYield != res.Acct.DeliveredBytes() {
		t.Fatalf("Σ ledger yields = %d, want D_A = %d", sumYield, res.Acct.DeliveredBytes())
	}
	if sumWAN != res.Acct.WANBytes() {
		t.Fatalf("Σ ledger WAN costs = %d, want %d", sumWAN, res.Acct.WANBytes())
	}
	// The shadows and the decision-latency histogram hang off the
	// Decider the simulator runs: the same loop over the same stream,
	// with them attached, must account alike.
	shadows := NewShadowSet()
	tel := NewTelemetry(reg)
	d := NewDecider(NewRateProfile(RateProfileConfig{Capacity: 2000}), tel, shadows, nil)
	for _, req := range reqs {
		d.Begin(req.Seq, "")
		for _, acc := range req.Accesses {
			if _, err := d.Access(sim.Objects[acc.Object], acc.Yield); err != nil {
				t.Fatal(err)
			}
		}
		d.End()
	}
	if d.Acct != res.Acct {
		t.Fatalf("decision loop accounting %+v, simulator %+v", d.Acct, res.Acct)
	}
	// Shadow identity: always-bypass WAN − realized WAN == exported
	// gauge. On a uniform network always-bypass ships the raw yield, and
	// the realized WAN is the simulator's.
	st := shadows.Stats(d.Acct)
	if st.BypassWANBytes != res.Acct.YieldBytes || st.SavedVsBypassBytes != res.Acct.YieldBytes-res.Acct.WANBytes() {
		t.Fatalf("shadow stats %+v, want always-bypass WAN %d and savings %d",
			st, res.Acct.YieldBytes, res.Acct.YieldBytes-res.Acct.WANBytes())
	}
	tel.Mirror(sim.Policy.Name(), d.Acct, st)
	snap := reg.Snapshot()
	if got := snap.GaugeValue("core.bytes_saved_vs_bypass"); got != st.SavedVsBypassBytes {
		t.Fatalf("gauge = %d, want %d", got, st.SavedVsBypassBytes)
	}
	// Decision latency histogram observed once per access.
	h, ok := snap.HistogramSnap("core.decide_seconds", "")
	if !ok || h.Count != res.Acct.Accesses {
		t.Fatalf("decide_seconds count = %+v (ok=%v), want %d observations", h, ok, res.Acct.Accesses)
	}
}

func TestRateProfileExplain(t *testing.T) {
	p := NewRateProfile(RateProfileConfig{Capacity: 1000})
	big := testObj("big", 5000)
	if d := p.Access(1, big, 100); d != Bypass {
		t.Fatalf("oversize access = %v, want Bypass", d)
	}
	if ex := p.LastExplain(); ex.Reason != ReasonOversize || ex.EpisodePhase != "open" {
		t.Fatalf("oversize explain = %+v", ex)
	}

	o := testObj("o1", 500)
	// First access: LAR ≤ 0 (load penalty not overcome) → bypass.
	if d := p.Access(2, o, 100); d != Bypass {
		t.Fatalf("cold access = %v, want Bypass", d)
	}
	if ex := p.LastExplain(); ex.Reason != ReasonLARNonpositive || ex.LAR > 0 {
		t.Fatalf("cold explain = %+v", ex)
	}
	// Hammer it until LAR turns positive, then it loads into free space.
	var loaded bool
	for i := int64(3); i <= 20; i++ {
		if p.Access(i, o, 500) == Load {
			loaded = true
			break
		}
	}
	if !loaded {
		t.Fatal("object never loaded")
	}
	if ex := p.LastExplain(); ex.Reason != ReasonFitsFree || ex.LAR <= 0 {
		t.Fatalf("load explain = %+v", ex)
	}
	// Next access is a hit with its RP.
	if d := p.Access(21, o, 100); d != Hit {
		t.Fatalf("post-load access = %v, want Hit", d)
	}
	if ex := p.LastExplain(); ex.Reason != ReasonInCache || ex.RP <= 0 {
		t.Fatalf("hit explain = %+v", ex)
	}

	// A competing object that would need an eviction but whose LAR
	// loses to the resident's RP: victims-save-more.
	o2 := testObj("o2", 600)
	if d := p.Access(22, o2, 1); d != Bypass {
		t.Fatalf("weak challenger = %v, want Bypass", d)
	}
	if ex := p.LastExplain(); ex.Reason != ReasonVictimsSaveMore || ex.VictimRP <= 0 {
		t.Fatalf("challenger explain = %+v", ex)
	}
}

func TestOnlineBYExplain(t *testing.T) {
	p := NewOnlineBY(NewLandlord(10_000))
	o := testObj("o1", 1000)
	if d := p.Access(1, o, 400); d != Bypass {
		t.Fatalf("first access = %v, want Bypass", d)
	}
	ex := p.LastExplain()
	if ex.Reason != ReasonAccumulating || !almostEqual(ex.BYU, 0.4) {
		t.Fatalf("accumulating explain = %+v", ex)
	}
	// Crossing: 400+700 = 1100 ≥ 1000 → present to A_obj, load.
	if d := p.Access(2, o, 700); d != Load {
		t.Fatalf("crossing access = %v, want Load", d)
	}
	ex = p.LastExplain()
	if ex.Reason != ReasonBYUCrossed || !almostEqual(ex.BYU, 0.1) {
		t.Fatalf("crossed explain = %+v", ex)
	}
	if d := p.Access(3, o, 100); d != Hit {
		t.Fatalf("cached access = %v, want Hit", d)
	}
	if ex = p.LastExplain(); ex.Reason != ReasonInCache {
		t.Fatalf("hit explain = %+v", ex)
	}
}

func TestDecisionRecordForNilPolicy(t *testing.T) {
	o := testObjCost("o1", 1000, 2000)
	rec := DecisionRecordFor(7, nil, "abcd", o, 500, Bypass)
	if rec.Policy != "" || rec.T != 7 || rec.Trace != "abcd" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.WANCost != o.BypassCost(500) {
		t.Fatalf("WANCost = %d, want %d", rec.WANCost, o.BypassCost(500))
	}
	if WANCost(o, 500, Hit) != 0 || WANCost(o, 500, Load) != 2000 {
		t.Fatal("WANCost flow rules broken")
	}
}

// BenchmarkShadowAccess is the cost the counterfactual figures add to
// one access: one add for always-bypass and one update of the object's
// ski-rental accumulator, found by its slot as the mediator's objects
// are. There is no shadow policy to load or evict, so every access
// after its object's first is this steady state.
func BenchmarkShadowAccess(b *testing.B) {
	objs := make([]Object, 200)
	for i := range objs {
		objs[i] = testObj(string(rune('a'+i%26))+string(rune('a'+i/26)), int64(100+i))
		objs[i].Slot = int32(i + 1)
	}
	s := NewShadowSet()
	for _, o := range objs {
		s.Access(o, 50)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(objs[i%len(objs)], 50)
	}
}
