package federation

import (
	"strings"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
)

// fakeHealth marks a chosen set of sites down.
type fakeHealth struct{ down map[string]string }

func (h *fakeHealth) SiteAvailable(site string) (bool, string) {
	if reason, bad := h.down[site]; bad {
		return false, reason
	}
	return true, ""
}

// loadAll caches every object on first touch — a deterministic stand-in
// for warming the cache, so forced-cache tests don't depend on a real
// policy's admission thresholds.
type loadAll struct {
	objs map[core.ObjectID]bool
	used int64
}

func (p *loadAll) Name() string { return "load-all" }
func (p *loadAll) Access(t int64, obj core.Object, yield int64) core.Decision {
	if p.objs[obj.ID] {
		return core.Hit
	}
	if p.objs == nil {
		p.objs = make(map[core.ObjectID]bool)
	}
	p.objs[obj.ID] = true
	p.used += obj.Size
	return core.Load
}
func (p *loadAll) Used() int64                   { return p.used }
func (p *loadAll) Capacity() int64               { return 1 << 62 }
func (p *loadAll) Contains(obj core.Object) bool { return p.objs[obj.ID] }
func (p *loadAll) Evictions() int64              { return 0 }

func newDegradedMediator(t *testing.T, p core.Policy) (*Mediator, *obs.Registry, *ledger.Ledger) {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 20000})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	led := ledger.New(1024)
	m, err := New(Config{Schema: s, Engine: db, Policy: p, Granularity: Tables, Obs: reg, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	return m, reg, led
}

func TestDegradedFailedLeg(t *testing.T) {
	// Site down, nothing cached: the leg fails, nothing is charged,
	// and the result shrinks by the lost yield.
	cap := catalog.EDR().TotalBytes()
	m, reg, led := newDegradedMediator(t, core.NewRateProfile(core.RateProfileConfig{Capacity: cap}))
	m.SetHealth(&fakeHealth{down: map[string]string{catalog.SitePhoto: "breaker open site=" + catalog.SitePhoto}})

	rep, err := m.Query("select ra, dec from photoobj where ra < 90")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("report not marked degraded")
	}
	if len(rep.Decisions) != 1 || !rep.Decisions[0].Failed {
		t.Fatalf("decisions = %+v, want one failed leg", rep.Decisions)
	}
	d := rep.Decisions[0]
	if d.Yield <= 0 {
		t.Fatal("failed leg lost no yield — query should have yielded bytes")
	}
	if !strings.HasPrefix(d.Reason, core.ReasonFailedLeg+": breaker open") {
		t.Fatalf("reason = %q", d.Reason)
	}
	if rep.Result.Bytes != 0 {
		t.Fatalf("result bytes = %d, want 0 (single-site query, site down)", rep.Result.Bytes)
	}
	if len(rep.SiteErrors) != 1 || rep.SiteErrors[0].Site != catalog.SitePhoto || rep.SiteErrors[0].LostBytes != d.Yield {
		t.Fatalf("site errors = %+v", rep.SiteErrors)
	}
	// Nothing charged: D_A, D_S, D_C, D_L all zero.
	acct := m.Accounting()
	if acct.DeliveredBytes() != 0 || acct.WANBytes() != 0 {
		t.Fatalf("accounting charged a failed leg: %+v", acct)
	}
	// Ledger records the failure with zero yield and WAN cost.
	recs := led.Snapshot()
	if len(recs) != 1 || recs[0].Action != "failed" || recs[0].Yield != 0 || recs[0].WANCost != 0 {
		t.Fatalf("ledger = %+v", recs)
	}
	s := reg.Snapshot()
	if s.CounterValue("core.failed_legs", catalog.SitePhoto) != 1 {
		t.Fatal("core.failed_legs not counted")
	}
	if s.CounterValue("core.degraded_queries", "") != 1 {
		t.Fatal("core.degraded_queries not counted")
	}
}

func TestDegradedForcedCache(t *testing.T) {
	// Warm the cache while healthy, then kill the site: accesses are
	// forced to serve-from-cache, charged exactly as hits.
	pol := &loadAll{}
	m, reg, led := newDegradedMediator(t, pol)
	const sql = "select ra, dec from photoobj where ra < 90"

	// First query loads the photoobj table into cache.
	if _, err := m.Query(sql); err != nil {
		t.Fatal(err)
	}
	obj := TableObjectID(catalog.EDR().Name, "photoobj")
	if !pol.Contains(m.Objects()[obj]) {
		t.Fatalf("warm-up did not cache %s", obj)
	}
	before := m.Accounting()

	m.SetHealth(&fakeHealth{down: map[string]string{catalog.SitePhoto: "breaker open site=" + catalog.SitePhoto}})
	rep, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || len(rep.Decisions) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	d := rep.Decisions[0]
	if !d.Forced || d.Failed || d.Decision != core.Hit {
		t.Fatalf("decision = %+v, want forced hit", d)
	}
	if !strings.HasPrefix(d.Reason, core.ReasonForcedCache+": breaker open") {
		t.Fatalf("reason = %q", d.Reason)
	}
	// The result is served in full from cache.
	if rep.Result.Bytes != d.Yield || d.Yield <= 0 {
		t.Fatalf("bytes = %d, yield = %d", rep.Result.Bytes, d.Yield)
	}
	// Charged exactly as a hit: D_A and D_C grow by the yield, WAN
	// unchanged.
	acct := m.Accounting()
	if acct.DeliveredBytes() != before.DeliveredBytes()+d.Yield {
		t.Fatalf("D_A grew by %d, want %d", acct.DeliveredBytes()-before.DeliveredBytes(), d.Yield)
	}
	if acct.WANBytes() != before.WANBytes() {
		t.Fatal("forced hit charged WAN traffic")
	}
	// Ledger: the forced record is a stale hit with the forced reason.
	recs := led.Snapshot()
	last := recs[len(recs)-1]
	if last.Action != "hit" || !last.Stale || !strings.HasPrefix(last.Reason, core.ReasonForcedCache) {
		t.Fatalf("ledger record = %+v", last)
	}
	s := reg.Snapshot()
	if s.CounterValue("core.forced_decisions", catalog.SitePhoto) != 1 {
		t.Fatal("core.forced_decisions not counted")
	}
	if s.CounterValue("core.stale_served_bytes", "") != d.Yield {
		t.Fatal("core.stale_served_bytes not counted")
	}
}

func TestDegradedMixedSites(t *testing.T) {
	// A join across a healthy and a dead site: the healthy leg is
	// decided normally, the dead leg fails, and Σ ledger yields still
	// equals D_A.
	m, _, led := newDegradedMediator(t, nil)
	m.SetHealth(&fakeHealth{down: map[string]string{catalog.SiteSpec: "breaker open site=" + catalog.SiteSpec}})

	rep, err := m.Query("select p.ra, s.z from photoobj p, specobj s where p.objid = s.objid")
	if err != nil {
		t.Fatal(err)
	}
	var failed, served int
	var lostYield int64
	for _, d := range rep.Decisions {
		if d.Failed {
			failed++
			lostYield += d.Yield
			if d.Site != catalog.SiteSpec {
				t.Fatalf("failed leg on healthy site: %+v", d)
			}
		} else {
			served++
			if d.Site == catalog.SiteSpec {
				t.Fatalf("dead site served a leg: %+v", d)
			}
		}
	}
	if failed == 0 || served == 0 {
		t.Fatalf("failed = %d, served = %d; want both non-zero", failed, served)
	}
	// Delivered bytes: the engine's full yield minus the lost legs.
	acct := m.Accounting()
	if acct.DeliveredBytes() != rep.Result.Bytes {
		t.Fatalf("D_A = %d, result bytes = %d", acct.DeliveredBytes(), rep.Result.Bytes)
	}
	// Σ ledger yields over all records equals D_A (failed records carry
	// zero yield by construction).
	var sum int64
	for _, r := range led.Snapshot() {
		sum += r.Yield
	}
	if sum != acct.DeliveredBytes() {
		t.Fatalf("Σ ledger yields = %d, D_A = %d", sum, acct.DeliveredBytes())
	}
	if lostYield <= 0 {
		t.Fatal("no yield lost on the dead site")
	}
}

func TestHealthDetachedServesNormally(t *testing.T) {
	m, _, _ := newDegradedMediator(t, nil)
	m.SetHealth(&fakeHealth{down: map[string]string{catalog.SitePhoto: "down"}})
	m.SetHealth(nil)
	rep, err := m.Query("select ra from photoobj where ra < 10")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || len(rep.SiteErrors) != 0 {
		t.Fatalf("detached health still degraded: %+v", rep)
	}
}

// countingHealth counts how often each site is asked about.
type countingHealth struct {
	fakeHealth
	asked map[string]int
}

func (h *countingHealth) SiteAvailable(site string) (bool, string) {
	h.asked[site]++
	return h.fakeHealth.SiteAvailable(site)
}

// TestSiteHealthAskedOncePerSitePerQuery: a query over five column
// objects at two sites asks each site for its health once, and every
// access of the down site is degraded on that one answer.
func TestSiteHealthAskedOncePerSitePerQuery(t *testing.T) {
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 20000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Schema: s, Engine: db, Policy: &loadAll{}, Granularity: Columns})
	if err != nil {
		t.Fatal(err)
	}
	h := &countingHealth{
		fakeHealth: fakeHealth{down: map[string]string{catalog.SiteSpec: "breaker open site=" + catalog.SiteSpec}},
		asked:      map[string]int{},
	}
	m.SetHealth(h)
	rep, err := m.Query("select p.ra, p.dec, s.z from photoobj p, specobj s where p.objid = s.objid")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decisions) != 5 {
		t.Fatalf("%d decisions, want 5 column accesses", len(rep.Decisions))
	}
	if len(h.asked) != 2 || h.asked[catalog.SitePhoto] != 1 || h.asked[catalog.SiteSpec] != 1 {
		t.Fatalf("sites asked %v, want photo and spec once each", h.asked)
	}
	failed := 0
	for _, d := range rep.Decisions {
		if d.Site == catalog.SiteSpec != d.Failed {
			t.Fatalf("decision %+v: only the down site's accesses fail", d)
		}
		if d.Failed {
			failed++
		}
	}
	if failed != 2 || len(rep.SiteErrors) != 1 {
		t.Fatalf("%d failed legs, site errors %+v; want specobj.objid and specobj.z lost to one site", failed, rep.SiteErrors)
	}
}

// journalSlice is a Journal that keeps what it is given.
type journalSlice struct{ recs []JournalRecord }

func (j *journalSlice) JournalAccess(r JournalRecord) { j.recs = append(j.recs, r) }

// TestJournalFollowsTheDecisions: a query's decisions are journaled in
// access order, each as what was decided — a policy's decision, a forced
// hit or a failed leg.
func TestJournalFollowsTheDecisions(t *testing.T) {
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 20000})
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New(64)
	m, err := New(Config{Schema: s, Engine: db, Policy: &loadAll{}, Granularity: Columns, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	j := &journalSlice{}
	m.SetJournal(j)
	var reps []QueryReport
	for _, sql := range []string{
		"select p.ra, s.z from photoobj p, specobj s where p.objid = s.objid",
		"select p.ra, p.dec, s.z, s.zconf from photoobj p, specobj s where p.objid = s.objid",
	} {
		rep, err := m.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, *rep)
		m.SetHealth(&fakeHealth{down: map[string]string{catalog.SiteSpec: "breaker open site=" + catalog.SiteSpec}})
	}
	kinds := map[JournalKind]int{}
	k := 0
	for _, rep := range reps {
		for _, d := range rep.Decisions {
			if k == len(j.recs) {
				t.Fatalf("the journal ends before Seq %d's decision %+v", rep.Seq, d)
			}
			want := JournalRecord{Kind: JournalAccess, T: rep.Seq, Object: d.Object, Yield: d.Yield, Decision: d.Decision}
			switch {
			case d.Failed:
				want.Kind = JournalFailed
			case d.Forced:
				want.Kind, want.Decision = JournalForced, core.Hit
			}
			if j.recs[k] != want {
				t.Fatalf("journal record %d is %+v, want %+v", k, j.recs[k], want)
			}
			kinds[want.Kind]++
			k++
		}
	}
	if k != len(j.recs) {
		t.Fatalf("%d journal records for %d decisions", len(j.recs), k)
	}
	if kinds[JournalAccess] == 0 || kinds[JournalForced] == 0 || kinds[JournalFailed] == 0 {
		t.Fatalf("journaled %v: want decided, forced and failed accesses", kinds)
	}
}
