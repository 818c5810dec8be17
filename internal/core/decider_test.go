package core

import (
	"math/rand"
	"testing"

	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
)

// TestSimulatorLedgerAndSavings: the Simulator's ledger explains every
// access and sums to its accounting, and the Decider it runs, with
// telemetry attached, accounts alike and exports what the policy saved
// against always-bypass.
func TestSimulatorLedgerAndSavings(t *testing.T) {
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
	// The decision-latency histogram hangs off the Decider the simulator
	// runs: the same loop over the same stream, with telemetry attached,
	// must account alike.
	tel := NewTelemetry(reg)
	d := NewDecider(NewRateProfile(RateProfileConfig{Capacity: 2000}), tel, nil)
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
	// On a uniform network always-bypass ships the raw yield, so the
	// exported savings are D_A less the realized WAN, D_S + D_L.
	tel.Mirror(sim.Policy.Name(), d.Acct)
	snap := reg.Snapshot()
	if got, want := snap.GaugeValue("core.bytes_saved_vs_bypass"), res.Acct.YieldBytes-res.Acct.WANBytes(); got != want {
		t.Fatalf("gauge = %d, want %d", got, want)
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
