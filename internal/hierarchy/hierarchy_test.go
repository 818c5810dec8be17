package hierarchy

import (
	"math/rand"
	"testing"

	"bypassyield/internal/core"
)

func obj(id string, size int64) core.Object {
	return core.Object{ID: core.ObjectID(id), Size: size, FetchCost: size}
}

func objects(objs ...core.Object) map[core.ObjectID]core.Object {
	m := map[core.ObjectID]core.Object{}
	for _, o := range objs {
		m[o.ID] = o
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no tiers should error")
	}
	if _, err := New(Config{
		Policies:    []core.Policy{core.NewNoCache()},
		LinkWeights: []float64{1, 1},
	}); err == nil {
		t.Fatal("mismatched weights should error")
	}
	if _, err := New(Config{
		Policies:    []core.Policy{core.NewNoCache()},
		LinkWeights: []float64{-1},
	}); err == nil {
		t.Fatal("negative weight should error")
	}
}

func TestSingleTierMatchesFlatSimulator(t *testing.T) {
	// A one-tier hierarchy with weight 1 must reproduce the flat
	// bypass-yield accounting exactly.
	a := obj("a", 100)
	m := objects(a)
	var reqs []core.Request
	r := rand.New(rand.NewSource(5))
	for i := int64(1); i <= 500; i++ {
		reqs = append(reqs, core.Request{Seq: i, Accesses: []core.Access{
			{Object: a.ID, Yield: int64(r.Intn(100))},
		}})
	}

	flat := core.NewRateProfile(core.RateProfileConfig{Capacity: 100})
	sim := &core.Simulator{Policy: flat, Objects: m}
	flatRes, err := sim.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}

	h, err := New(Config{
		Policies:    []core.Policy{core.NewRateProfile(core.RateProfileConfig{Capacity: 100})},
		LinkWeights: []float64{1},
		Objects:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := h.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if int64(hres.Cost) != flatRes.Acct.WANBytes() {
		t.Fatalf("hierarchy cost %v != flat WAN %d", hres.Cost, flatRes.Acct.WANBytes())
	}
}

func TestHitAtInnerTierCostsNothing(t *testing.T) {
	a := obj("a", 10)
	h, err := New(Config{
		Policies: []core.Policy{
			core.NewGDS(100), // inline: loads on first access
			core.NewNoCache(),
		},
		LinkWeights: []float64{1, 1},
		Objects:     objects(a),
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []core.Request{
		{Seq: 1, Accesses: []core.Access{{Object: a.ID, Yield: 5}}}, // load at tier 0
		{Seq: 2, Accesses: []core.Access{{Object: a.ID, Yield: 5}}}, // hit at tier 0
	}
	res, err := h.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Load crosses both links (fetch from server): 10+10; the hit is
	// free.
	if res.LinkBytes[0] != 10 || res.LinkBytes[1] != 10 {
		t.Fatalf("link bytes = %v, want [10 10]", res.LinkBytes)
	}
	if res.ServedAt[0] != 2 {
		t.Fatalf("served at tier 0 = %d, want 2", res.ServedAt[0])
	}
}

func TestMidTierHitCrossesInnerLinksOnly(t *testing.T) {
	a := obj("a", 10)
	h, err := New(Config{
		Policies: []core.Policy{
			core.NewNoCache(), // tier 0 always bypasses
			core.NewGDS(100),  // tier 1 caches
		},
		LinkWeights: []float64{1, 3},
		Objects:     objects(a),
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []core.Request{
		{Seq: 1, Accesses: []core.Access{{Object: a.ID, Yield: 4}}}, // tier1 load: fetch crosses link1 (server side)
		{Seq: 2, Accesses: []core.Access{{Object: a.ID, Yield: 4}}}, // tier1 hit: result crosses link0 only
	}
	res, err := h.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Query 1: fetch 10 bytes over link1, result 4 over link0.
	// Query 2: result 4 over link0.
	if res.LinkBytes[0] != 8 || res.LinkBytes[1] != 10 {
		t.Fatalf("link bytes = %v, want [8 10]", res.LinkBytes)
	}
	if res.Cost != 8*1+10*3 {
		t.Fatalf("cost = %v, want 38", res.Cost)
	}
}

func TestFetchFromOuterTierNotServer(t *testing.T) {
	a := obj("a", 10)
	tier1 := core.NewGDS(100)
	h, err := New(Config{
		Policies: []core.Policy{
			core.NewGDS(100),
			tier1,
		},
		LinkWeights: []float64{1, 5},
		Objects:     objects(a),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-warm tier 1 directly.
	tier1.Access(0, core.Object{ID: a.ID, Size: 10, FetchCost: 50}, 10)
	if !tier1.Contains(a) {
		t.Fatal("tier 1 should hold a")
	}
	// Tier 0 load should now fetch from tier 1, crossing only link 0.
	res, err := h.Run([]core.Request{
		{Seq: 1, Accesses: []core.Access{{Object: a.ID, Yield: 9}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tier 0 is GDS (inline): it loads on the miss. Fetch = 10 bytes
	// over link 0 only; result 9 bytes over no links (served at tier
	// 0 after load... the load itself serves the access locally).
	if res.LinkBytes[1] != 0 {
		t.Fatalf("server link carried %d bytes; fetch should come from tier 1", res.LinkBytes[1])
	}
	if res.LinkBytes[0] != 10 {
		t.Fatalf("link 0 = %d, want 10 (the object fetch)", res.LinkBytes[0])
	}
}

func TestMissEverywhereCrossesAllLinks(t *testing.T) {
	a := obj("a", 1000)
	h, err := New(Config{
		Policies:    []core.Policy{core.NewNoCache(), core.NewNoCache()},
		LinkWeights: []float64{2, 3},
		Objects:     objects(a),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run([]core.Request{
		{Seq: 1, Accesses: []core.Access{{Object: a.ID, Yield: 7}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkBytes[0] != 7 || res.LinkBytes[1] != 7 {
		t.Fatalf("link bytes = %v, want [7 7]", res.LinkBytes)
	}
	if res.Cost != 7*2+7*3 {
		t.Fatalf("cost = %v, want 35", res.Cost)
	}
	if res.ServedAt[2] != 1 {
		t.Fatal("access should be served by the servers")
	}
}

func TestTierFetchCostsReflectDistance(t *testing.T) {
	a := obj("a", 100)
	s, err := New(Config{
		Policies:    []core.Policy{core.NewNoCache(), core.NewNoCache(), core.NewNoCache()},
		LinkWeights: []float64{1, 2, 4},
		Objects:     objects(a),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tier 0 is 1+2+4 = 7 per byte from the servers; tier 2 is 4.
	if got := s.tierObject(0, a).FetchCost; got != 700 {
		t.Fatalf("tier 0 fetch = %d, want 700", got)
	}
	if got := s.tierObject(2, a).FetchCost; got != 400 {
		t.Fatalf("tier 2 fetch = %d, want 400", got)
	}
}

func TestTwoTierBeatsSingleOnSharedLink(t *testing.T) {
	// A client-side tier in front of the mediator saves the
	// client↔mediator link on repeated small-object traffic.
	a := obj("a", 50)
	m := objects(a)
	var reqs []core.Request
	for i := int64(1); i <= 400; i++ {
		reqs = append(reqs, core.Request{Seq: i, Accesses: []core.Access{{Object: a.ID, Yield: 40}}})
	}
	single, err := New(Config{
		Policies:    []core.Policy{core.NewRateProfile(core.RateProfileConfig{Capacity: 100})},
		LinkWeights: []float64{1},
		Objects:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	double, err := New(Config{
		Policies: []core.Policy{
			core.NewRateProfile(core.RateProfileConfig{Capacity: 100}),
			core.NewRateProfile(core.RateProfileConfig{Capacity: 100}),
		},
		LinkWeights: []float64{1, 1},
		Objects:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := double.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// The single tier here plays the role of the outer mediator: its
	// hits still ship results over the client link, which the
	// two-tier setup serves locally. Compare total costs with the
	// client link included for both: single-tier cost must count the
	// client link too, so rebuild it as NoCache + mediator.
	baseline, err := New(Config{
		Policies:    []core.Policy{core.NewNoCache(), core.NewRateProfile(core.RateProfileConfig{Capacity: 100})},
		LinkWeights: []float64{1, 1},
		Objects:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := baseline.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Cost >= bres.Cost {
		t.Fatalf("two-tier cost %v should beat mediator-only %v", dres.Cost, bres.Cost)
	}
	_ = sres
}
