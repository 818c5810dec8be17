package core

import (
	"math/rand"
	"testing"

	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
)

func TestShadowNilIsNoOp(t *testing.T) {
	var s *ShadowSet
	s.Access(1, testObj("o1", 100), 10, Bypass) // must not panic
	s.Reset()
	if s.OptBound() != 0 || s.CompetitiveRatio() != 0 || s.SavedVs("lruk") != 0 || s.Stats().OptBoundBytes != 0 {
		t.Fatal("nil shadow set must read zero")
	}
	if s.Baselines() != nil {
		t.Fatal("nil shadow set Baselines must be nil")
	}
}

func TestShadowAlwaysBypassAccounting(t *testing.T) {
	// The always-bypass shadow's WAN must equal the sequence cost
	// (Σ cost-scaled yields) regardless of the live decisions.
	s := NewShadowSet(1000)
	o := testObj("o1", 1000)
	s.Access(1, o, 400, Bypass)
	s.Access(2, o, 600, Load)
	s.Access(3, o, 300, Hit)
	var seq int64 = 400 + 600 + 300
	b := s.Baselines()
	if b[0].Name != "always-bypass" {
		t.Fatalf("baseline[0] = %q, want always-bypass", b[0].Name)
	}
	if got := b[0].Acct.WANBytes(); got != seq {
		t.Fatalf("always-bypass WAN = %d, want sequence cost %d", got, seq)
	}
	// Savings identity: shadow WAN − realized WAN.
	realized := s.Realized().WANBytes() // 400 bypass + 1000 fetch
	if realized != 1400 {
		t.Fatalf("realized WAN = %d, want 1400", realized)
	}
	if got := s.SavedVs("always-bypass"); got != seq-realized {
		t.Fatalf("SavedVs(always-bypass) = %d, want %d", got, seq-realized)
	}
}

func TestShadowOptBoundAndRatio(t *testing.T) {
	s := NewShadowSet(10_000)
	o1 := testObj("o1", 1000)
	o2 := testObj("o2", 2000)
	// o1: bypass demand 700 < fetch → bound contribution 700.
	s.Access(1, o1, 700, Bypass)
	// o2: demand 1500+1500 = 3000 > fetch 2000 → contribution capped at 2000.
	s.Access(2, o2, 1500, Bypass)
	s.Access(3, o2, 1500, Bypass)
	if got := s.OptBound(); got != 700+2000 {
		t.Fatalf("OptBound = %d, want 2700", got)
	}
	// The bound never exceeds realized WAN, so the ratio is ≥ 1 for
	// any live decision stream (here all-bypass: realized 3700).
	if s.Realized().WANBytes() < s.OptBound() {
		t.Fatalf("bound %d exceeds realized %d", s.OptBound(), s.Realized().WANBytes())
	}
	if r := s.CompetitiveRatio(); r < 1 {
		t.Fatalf("competitive ratio = %f, want ≥ 1", r)
	}
}

func TestShadowRatioAtLeastOneUnderRandomStream(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	objs := []Object{testObj("a", 500), testObj("b", 2000), testObjCost("c", 1000, 3000)}
	live := NewRateProfile(RateProfileConfig{Capacity: 2500})
	s := NewShadowSet(2500)
	for i := 1; i <= 2000; i++ {
		o := objs[r.Intn(len(objs))]
		y := r.Int63n(o.Size + 1)
		d := live.Access(int64(i), o, y)
		s.Access(int64(i), o, y, d)
	}
	if s.OptBound() <= 0 {
		t.Fatal("bound never grew")
	}
	if got := s.CompetitiveRatio(); got < 1 {
		t.Fatalf("competitive ratio = %f, want ≥ 1", got)
	}
}

// TestShadowTelemetryGauges: the shadow metrics a registry carries are
// a reading of the set (Stats) mirrored, and move only when read again.
func TestShadowTelemetryGauges(t *testing.T) {
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	s := NewShadowSet(1000)
	o := testObj("o1", 1000)
	s.Access(1, o, 400, Bypass)
	s.Access(2, o, 600, Load)
	if got := reg.Snapshot().GaugeValue("core.bytes_saved_vs_bypass"); got != 0 {
		t.Fatalf("gauge moved before Mirror: %d", got)
	}
	tel.Mirror("p", Accounting{}, s.Stats())
	tel.Mirror("p", Accounting{}, s.Stats()) // nothing new: nothing moves
	snap := reg.Snapshot()
	wantSaved := s.SavedVs("always-bypass")
	if got := snap.GaugeValue("core.bytes_saved_vs_bypass"); got != wantSaved {
		t.Fatalf("gauge core.bytes_saved_vs_bypass = %d, want %d", got, wantSaved)
	}
	if got := snap.GaugeValue("core.bytes_saved_vs_lruk"); got != s.SavedVs("lruk") {
		t.Fatalf("gauge core.bytes_saved_vs_lruk = %d, want %d", got, s.SavedVs("lruk"))
	}
	if got := snap.CounterValue("core.optbound_bytes", ""); got != s.OptBound() {
		t.Fatalf("counter core.optbound_bytes = %d, want %d", got, s.OptBound())
	}
	if got := snap.CounterValue("core.shadow_wan_bytes", "always-bypass"); got != 1000 {
		t.Fatalf("shadow_wan_bytes{always-bypass} = %d, want 1000", got)
	}
	wantRatio := int64(s.CompetitiveRatio() * 1000)
	if got := snap.GaugeValue("core.competitive_ratio_milli"); got != wantRatio {
		t.Fatalf("competitive_ratio_milli = %d, want %d", got, wantRatio)
	}
}

func TestShadowReset(t *testing.T) {
	s := NewShadowSet(1000)
	s.Access(1, testObj("o1", 1000), 500, Bypass)
	s.Reset()
	if s.OptBound() != 0 || s.Realized().WANBytes() != 0 {
		t.Fatal("Reset did not clear shadow state")
	}
	for _, b := range s.Baselines() {
		if b.Acct.WANBytes() != 0 || b.SavedBytes != 0 {
			t.Fatalf("baseline %s not cleared: %+v", b.Name, b)
		}
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
	shadows := NewShadowSet(2000)
	tel := NewTelemetry(reg)
	d := NewDecider(NewRateProfile(RateProfileConfig{Capacity: 2000}), tel, shadows, nil)
	for _, req := range reqs {
		d.Begin(req.Seq, "", len(req.Accesses))
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
	// Shadow identity: always-bypass WAN − realized WAN == exported gauge.
	tel.Mirror(sim.Policy.Name(), d.Acct, shadows.Stats())
	snap := reg.Snapshot()
	wantSaved := shadows.SavedVs("always-bypass")
	if got := snap.GaugeValue("core.bytes_saved_vs_bypass"); got != wantSaved {
		t.Fatalf("gauge = %d, want %d", got, wantSaved)
	}
	// The shadow set sees accesses, not queries or evictions; the flow
	// fields must agree exactly with the simulator's accounting.
	wantAcct := res.Acct
	wantAcct.Queries = 0
	wantAcct.Evictions = 0
	if shadows.Realized() != wantAcct {
		t.Fatalf("shadow realized accounting diverged:\n %+v\nvs %+v", shadows.Realized(), wantAcct)
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

// BenchmarkShadowAccess is the cost the counterfactual baselines add to
// one access (both shadow policies and the ski-rental bound). The LRU-K
// shadow holds every object, so this is the steady state of a cache
// that mostly hits; a shadow load or eviction costs two allocations
// (the heap item and its boxed object).
func BenchmarkShadowAccess(b *testing.B) {
	objs := make([]Object, 200)
	for i := range objs {
		objs[i] = testObj(string(rune('a'+i%26))+string(rune('a'+i/26)), int64(100+i))
	}
	s := NewShadowSet(1 << 20)
	for i, o := range objs {
		s.Access(0, o, 50, Decision(i%3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(int64(i/17), objs[i%len(objs)], 50, Decision(i%3))
	}
}
