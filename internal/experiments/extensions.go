package experiments

import (
	"fmt"
	"math/rand"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/hierarchy"
	"bypassyield/internal/netcost"
	"bypassyield/internal/semcache"
	"bypassyield/internal/sqlparse"
)

// Extension experiments beyond the paper's figures: the semantic-
// caching comparison Section 6.1 argues qualitatively (xsem), the
// non-uniform-network/BYHR generalization Section 3 defines but never
// evaluates (xnet), and an empirical check of OnlineBY's competitive
// behaviour (xcomp).

// ExtensionIDs lists the extension experiment identifiers.
func ExtensionIDs() []string {
	return []string{"xsem", "xnet", "xcomp", "xhier", "xview", "xscale", "xavail"}
}

// runExtension dispatches extension ids; ok is false for unknown ids.
func (s *Suite) runExtension(id string) (*Table, bool, error) {
	switch id {
	case "xsem":
		t, err := s.XSem()
		return t, true, err
	case "xnet":
		t, err := s.XNet()
		return t, true, err
	case "xcomp":
		t, err := s.XComp()
		return t, true, err
	case "xhier":
		t, err := s.XHier()
		return t, true, err
	case "xview":
		t, err := s.XView()
		return t, true, err
	case "xscale":
		t, err := s.XScale()
		return t, true, err
	case "xavail":
		t, err := s.XAvail()
		return t, true, err
	default:
		return nil, false, nil
	}
}

// XScale probes the paper's motivating scalability crisis ("we expect
// the federation to expand to more than 120 sites"): k archives with
// independent EDR-like workloads share one mediator cache sized for a
// single archive. Each archive's trace is the EDR trace with objects
// renamed per archive; streams interleave round-robin. A bypass-yield
// cache degrades gracefully — it concentrates on the most valuable
// objects across archives and bypasses the rest — while in-line GDS
// thrashes.
func (s *Suite) XScale() (*Table, error) {
	baseReqs, err := s.requests("edr", federation.Columns)
	if err != nil {
		return nil, err
	}
	baseObjs, dbBytes, err := s.objects("edr", federation.Columns)
	if err != nil {
		return nil, err
	}
	capacity := int64(s.CachePct * float64(dbBytes)) // sized for ONE archive

	t := &Table{
		ID:    "xscale",
		Title: "Federation growth: k archives, one cache sized for one archive (EDR, columns)",
		Columns: []string{"archives", "seq-cost(GB)", "rate-profile(GB)", "online-by(GB)",
			"gds(GB)", "rate-profile-savings"},
	}
	for _, k := range []int{1, 2, 4, 8} {
		reqs, objs := cloneFederation(baseReqs, baseObjs, k)
		var seq int64
		for _, r := range reqs {
			for _, a := range r.Accesses {
				seq += a.Yield
			}
		}
		results := make(map[string]int64)
		for _, ps := range []struct {
			name string
			p    core.Policy
		}{
			{"rp", core.NewRateProfile(core.RateProfileConfig{Capacity: capacity, Episodes: figureEpisodes})},
			{"ob", core.NewOnlineBY(core.NewLandlord(capacity))},
			{"gds", core.NewGDS(capacity)},
		} {
			res, err := s.simulate(ps.p, reqs, objs, 0)
			if err != nil {
				return nil, err
			}
			results[ps.name] = res.Acct.WANBytes()
		}
		t.AddRow(
			fmt.Sprintf("%d", k),
			gbf(seq),
			gbf(results["rp"]),
			gbf(results["ob"]),
			gbf(results["gds"]),
			fmt.Sprintf("%.1fx", float64(seq)/float64(results["rp"])),
		)
	}
	t.AddNote("cache fixed at %.0f%% of ONE archive while the federation grows k-fold", s.CachePct*100)
	t.AddNote("paper motivation: \"The WWT faces an impending scalability crisis... We expect the federation to expand to more than 120 sites\"")
	return t, nil
}

// cloneFederation builds a k-archive federation: object universes and
// request streams replicated with per-archive prefixes, interleaved
// round-robin with fresh sequence numbers.
func cloneFederation(reqs []core.Request, objs map[core.ObjectID]core.Object, k int) ([]core.Request, map[core.ObjectID]core.Object) {
	outObjs := make(map[core.ObjectID]core.Object, len(objs)*k)
	prefix := func(i int, id core.ObjectID) core.ObjectID {
		if i == 0 {
			return id
		}
		return core.ObjectID(fmt.Sprintf("a%d:%s", i, id))
	}
	for i := 0; i < k; i++ {
		for id, o := range objs {
			nid := prefix(i, id)
			o.ID = nid
			outObjs[nid] = o
		}
	}
	out := make([]core.Request, 0, len(reqs)*k)
	seq := int64(0)
	for _, r := range reqs {
		for i := 0; i < k; i++ {
			seq++
			nr := core.Request{Seq: seq, Accesses: make([]core.Access, len(r.Accesses))}
			for j, a := range r.Accesses {
				nr.Accesses[j] = core.Access{Object: prefix(i, a.Object), Yield: a.Yield}
			}
			out = append(out, nr)
		}
	}
	return out, outObjs
}

// XView evaluates the third object class the paper names but never
// measures — materialized views — against tables and columns. Views
// combine coarse-grained loading with the filtering benefit of
// predicate-defined slices: a Galaxy view is a tenth of the
// photometric table, so class-restricted scans become cacheable at a
// fraction of the table's fetch cost.
func (s *Suite) XView() (*Table, error) {
	t := &Table{
		ID:    "xview",
		Title: "Object granularity: tables vs columns vs materialized views (EDR, Rate-Profile)",
		Columns: []string{"cache%", "granularity", "WAN(GB)", "loads", "evictions",
			"byte-hit-rate"},
	}
	for _, pct := range []int{5, 10, 20, 40} {
		for _, g := range []federation.Granularity{federation.Tables, federation.Columns, federation.Views} {
			reqs, err := s.requests("edr", g)
			if err != nil {
				return nil, err
			}
			objs, dbBytes, err := s.objects("edr", g)
			if err != nil {
				return nil, err
			}
			capacity := dbBytes * int64(pct) / 100
			p := core.NewRateProfile(core.RateProfileConfig{Capacity: capacity, Episodes: figureEpisodes})
			res, err := s.simulate(p, reqs, objs, 0)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				fmt.Sprintf("%d", pct),
				g.String(),
				gbf(res.Acct.WANBytes()),
				fmt.Sprintf("%d", res.Acct.Loads),
				fmt.Sprintf("%d", res.Acct.Evictions),
				fmt.Sprintf("%.2f", res.Acct.ByteHitRate()),
			)
		}
	}
	t.AddNote("views universe = standard views (galaxy, star, brightgalaxy, lowzspec) + base tables as fallback")
	t.AddNote("three regimes: at tiny caches churn eats the view advantage; in the mid-range views beat tables (a Galaxy slice fits where the whole photometric table cannot); at large caches views LOSE to tables — view-attributed traffic no longer credits the base table, so view and table both get cached and the redundancy costs fetches")
	t.AddNote("the paper names \"relations, attributes, and materialized views\" as object classes but evaluates only the first two; columns dominate throughout, consistent with its choice")
	return t, nil
}

// XSem quantifies the paper's negative result on semantic caching: a
// query-result cache with containment matching barely dents the
// sequence cost, because astronomy workloads exhibit schema locality
// but not query locality.
func (s *Suite) XSem() (*Table, error) {
	recs, err := s.records("edr", federation.Columns)
	if err != nil {
		return nil, err
	}
	p, err := s.profile("edr")
	if err != nil {
		return nil, err
	}
	reqs, err := s.requests("edr", federation.Columns)
	if err != nil {
		return nil, err
	}
	objs, dbBytes, err := s.objects("edr", federation.Columns)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "xsem",
		Title: "Semantic (query) caching vs bypass-yield (EDR)",
		Columns: []string{"cache%", "sem-hits", "hit-rate", "hit-rate-dumps",
			"hit-rate-science", "sem-WAN(GB)", "rate-profile-WAN(GB)"},
	}
	// Dumps (bulk extracts and campaign bursts) repeat near-identical
	// statements and are the only place query reuse exists; the
	// selective science classes are where the paper's "no query
	// containment" claim lives.
	isDump := func(class string) bool {
		return class == "bulk" || class == "campaign"
	}
	for _, pct := range []int{10, 40, 70, 100} {
		capacity := dbBytes * int64(pct) / 100
		sc := semcache.New(p.Schema, capacity)
		var wan int64
		var hits, total, dumpHits, dumpTotal, sciHits, sciTotal int64
		for _, rec := range recs {
			stmt, err := sqlparse.Parse(rec.SQL)
			if err != nil {
				continue
			}
			total++
			hit := sc.Query(rec.Seq, stmt, rec.Yield) == core.Hit
			if hit {
				hits++
			} else {
				wan += rec.Yield
			}
			if isDump(rec.Class) {
				dumpTotal++
				if hit {
					dumpHits++
				}
			} else {
				sciTotal++
				if hit {
					sciHits++
				}
			}
		}
		res, err := s.simulate(core.NewRateProfile(core.RateProfileConfig{
			Capacity: capacity, Episodes: figureEpisodes,
		}), reqs, objs, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", pct),
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%.3f", rate(hits, total)),
			fmt.Sprintf("%.3f", rate(dumpHits, dumpTotal)),
			fmt.Sprintf("%.3f", rate(sciHits, sciTotal)),
			gbf(wan),
			gbf(res.Acct.WANBytes()),
		)
	}
	t.AddNote("sequence cost = %s GB; semantic cache uses exact + containment matching over the SQL subset", gbf(s.seqs["edr/columns"]))
	t.AddNote("reuse concentrates in repeated whole-chunk dumps (synthetic near-duplicates); even granting the semantic cache generous containment matching, its WAN cost stays 5-8x above bypass-yield at practical sizes — partial-match misses ship whole results and large cached results churn")
	return t, nil
}

func rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// XHier explores the paper's deferred future work — cache
// hierarchies: a small client-side bypass-yield tier in front of the
// mediator cache, with equal-weight WAN links client↔mediator and
// mediator↔servers. The comparison includes the client link for every
// configuration, so the paper's single mediator cache appears as a
// no-cache client tier.
func (s *Suite) XHier() (*Table, error) {
	reqs, err := s.requests("edr", federation.Columns)
	if err != nil {
		return nil, err
	}
	objs, dbBytes, err := s.objects("edr", federation.Columns)
	if err != nil {
		return nil, err
	}
	medCap := int64(s.CachePct * float64(dbBytes))
	mkRP := func(c int64) core.Policy {
		return core.NewRateProfile(core.RateProfileConfig{Capacity: c, Episodes: figureEpisodes})
	}

	t := &Table{
		ID:    "xhier",
		Title: "Cache hierarchies: client tier in front of the mediator (EDR, columns)",
		Columns: []string{"configuration", "total-cost(GB)", "client-link(GB)",
			"server-link(GB)", "client-hits", "mediator-hits"},
	}
	configs := []struct {
		name     string
		policies []core.Policy
	}{
		{"no caching", []core.Policy{core.NewNoCache(), core.NewNoCache()}},
		{"mediator only (paper)", []core.Policy{core.NewNoCache(), mkRP(medCap)}},
		{"client 10% + mediator", []core.Policy{mkRP(dbBytes / 10), mkRP(medCap)}},
		{"client 20% + mediator", []core.Policy{mkRP(dbBytes / 5), mkRP(medCap)}},
	}
	for _, cfg := range configs {
		h, err := hierarchy.New(hierarchy.Config{
			Policies:    cfg.policies,
			LinkWeights: []float64{1, 1},
			Objects:     objs,
		})
		if err != nil {
			return nil, err
		}
		res, err := h.Run(reqs)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			cfg.name,
			fmt.Sprintf("%.2f", res.Cost/1e9),
			gbf(res.LinkBytes[0]),
			gbf(res.LinkBytes[1]),
			fmt.Sprintf("%d", res.TierAccts[0].Hits),
			fmt.Sprintf("%d", res.TierAccts[1].Hits),
		)
	}
	t.AddNote("links weighted 1:1 (client↔mediator, mediator↔servers); mediator cache = %.0f%% of DB", s.CachePct*100)
	t.AddNote("paper future work: \"we do not consider hierarchies of caches\"; a client tier saves the client link on its hits")
	return t, nil
}

// costBlind wraps a policy so it sees every object with a uniform
// fetch cost (FetchCost = Size) while the simulator still accounts
// real, per-site transfer costs — the ablation isolating what the
// BYHR cost term buys on non-uniform networks.
type costBlind struct {
	core.Policy
}

func (c costBlind) Name() string { return c.Policy.Name() + "-cost-blind" }

func (c costBlind) Access(t int64, obj core.Object, yield int64) core.Decision {
	obj.FetchCost = obj.Size
	return c.Policy.Access(t, obj, yield)
}

// XNet evaluates the BYHR generalization on a non-uniform network:
// the spectroscopic site is 3× as expensive per byte and the metadata
// site 2×. Cost-aware policies (BYHR semantics) are compared with
// cost-blind variants (BYU semantics) under true-cost accounting.
func (s *Suite) XNet() (*Table, error) {
	reqs, err := s.requests("edr", federation.Columns)
	if err != nil {
		return nil, err
	}
	p, err := s.profile("edr")
	if err != nil {
		return nil, err
	}
	dbBytes := p.Schema.TotalBytes()
	capacity := int64(s.CachePct * float64(dbBytes))

	nm := &netcost.Model{PerSite: map[string]float64{
		"spec.sdss.org": 3,
		"meta.sdss.org": 2,
	}}
	objs := federation.Objects(p.Schema, federation.Columns, nm)

	t := &Table{
		ID:      "xnet",
		Title:   "Non-uniform network (spec 3x, meta 2x): BYHR vs cost-blind BYU",
		Columns: []string{"policy", "WAN-cost(GB)", "bypass(GB)", "fetch(GB)"},
	}
	mk := []struct {
		name string
		p    core.Policy
	}{
		{"rate-profile (BYHR)", core.NewRateProfile(core.RateProfileConfig{Capacity: capacity, Episodes: figureEpisodes})},
		{"rate-profile (cost-blind)", costBlind{core.NewRateProfile(core.RateProfileConfig{Capacity: capacity, Episodes: figureEpisodes})}},
		{"online-by (BYHR)", core.NewOnlineBY(core.NewLandlord(capacity))},
		{"online-by (cost-blind)", costBlind{core.NewOnlineBY(core.NewLandlord(capacity))}},
		{"gds", core.NewGDS(capacity)},
		{"no-cache", core.NewNoCache()},
	}
	for _, m := range mk {
		res, err := s.simulate(m.p, reqs, objs, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.name, gbf(res.Acct.WANBytes()), gbf(res.Acct.BypassBytes), gbf(res.Acct.FetchBytes))
	}
	t.AddNote("cache = %.0f%% of DB; costs are per-byte-scaled by site (BYHR's f_i/s_i term)", s.CachePct*100)
	t.AddNote("cost-awareness moves the bypass/fetch balance rather than uniformly winning: the BYHR-aware Rate-Profile holds a higher bar against loading expensive-site objects (less fetch, more bypass); on workloads where those loads would have paid off the blind variant can come out ahead")
	return t, nil
}

// XComp empirically probes OnlineBY's competitive behaviour: over
// random traces with adversarially mixed object sizes, its cost is
// compared against the static-optimal offline plan, one row per policy
// name, so each A_obj (whose α the bound takes) has its own. The theory
// (Theorem 5.1 with a k-competitive A_obj) bounds the ratio to the
// true offline optimum; the stand-in, min(static-optimal, lookahead),
// costs at least that optimum, so the observed ratios are lower
// estimates of the true ones.
func (s *Suite) XComp() (*Table, error) {
	t := &Table{
		ID:      "xcomp",
		Title:   "Empirical competitive ratios vs offline stand-ins (random traces)",
		Columns: []string{"trace-family", "policy", "max-ratio", "mean-ratio"},
	}
	families := []struct {
		name     string
		maxYield float64
	}{
		{"partial yields (y ≤ s/4)", 0.25},
		{"full-object yields", 1.0},
		{"oversubscribed (y ≤ 2s)", 2.0},
	}
	mkPolicies := func(capacity int64) []core.Policy {
		return []core.Policy{
			core.NewOnlineBY(core.NewLandlord(capacity)),
			core.NewOnlineBY(core.NewSizeClassMarking(capacity)),
			core.NewSpaceEffBY(core.NewLandlord(capacity), rand.NewSource(3)),
		}
	}
	const trials = 12
	for _, fam := range families {
		type agg struct {
			max, sum float64
			n        int
		}
		ratios := map[string]*agg{}
		order := []string{}
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			objs := map[core.ObjectID]core.Object{}
			var list []core.Object
			for i := 0; i < 10; i++ {
				size := int64(1<<uint(10+rng.Intn(8))) + int64(rng.Intn(512))
				o := core.Object{
					ID:        core.ObjectID(fmt.Sprintf("o%d", i)),
					Size:      size,
					FetchCost: size,
				}
				objs[o.ID] = o
				list = append(list, o)
			}
			var reqs []core.Request
			for q := int64(1); q <= 3000; q++ {
				o := list[rng.Intn(len(list))]
				y := int64(rng.Float64() * fam.maxYield * float64(o.Size))
				reqs = append(reqs, core.Request{Seq: q, Accesses: []core.Access{{Object: o.ID, Yield: y}}})
			}
			capacity := int64(200 << 10)
			staticRes, err := s.simulate(core.PlanStatic(capacity, reqs, objs), reqs, objs, 0)
			if err != nil {
				return nil, err
			}
			// The offline stand-in is the better of the static plan
			// and the clairvoyant lookahead heuristic.
			lookRes, err := s.simulate(core.NewLookahead(capacity, reqs, 0), reqs, objs, 0)
			if err != nil {
				return nil, err
			}
			opt := float64(staticRes.Acct.WANBytes())
			if v := float64(lookRes.Acct.WANBytes()); v > 0 && v < opt {
				opt = v
			}
			if opt <= 0 {
				continue
			}
			for _, p := range mkPolicies(capacity) {
				res, err := s.simulate(p, reqs, objs, 0)
				if err != nil {
					return nil, err
				}
				r := float64(res.Acct.WANBytes()) / opt
				key := p.Name()
				a := ratios[key]
				if a == nil {
					a = &agg{}
					ratios[key] = a
					order = append(order, key)
				}
				if r > a.max {
					a.max = r
				}
				a.sum += r
				a.n++
			}
		}
		for _, key := range order {
			a := ratios[key]
			t.AddRow(fam.name, key,
				fmt.Sprintf("%.2f", a.max),
				fmt.Sprintf("%.2f", a.sum/float64(a.n)))
		}
	}
	t.AddNote("%d random traces per family, 10 objects, 3000 queries, 200 KiB cache", trials)
	t.AddNote("Theorem 5.1: (4α+2)-competitive for an α-competitive A_obj; ratios here are vs min(static-optimal, clairvoyant lookahead), which costs at least OPT: a lower estimate of the true ratio")
	return t, nil
}
