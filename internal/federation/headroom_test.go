package federation_test

import (
	"fmt"
	"strings"
	"testing"

	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/workload"
)

// TestShipFirstHeadroom counts what shipping every statement the policy
// will bypass could take from the proxy's engine, beyond the yield-blind
// statements it already ships. A statement counts when it is not
// yield-blind, its tables are one site's, and every one of its accesses
// was bypassed. That is counted after the fact, so it bounds what any
// dry run of the policy before the decision (a Peek) could ship. The
// streams are EDR's, DR1's and the federation benchmark's point mix, each
// at 0.1%, 10% and 40% of its release, Rate-Profile on column objects,
// the engine at one row in a thousand: 2 000 statements warm the cache,
// the next 10 000 are counted. Every point logs the count and the
// execute time those statements spend.
//
// At the federation benchmark's three wire workloads — EDR at 0.1%
// (edr-bypass) and 40% (edr-cached), the point mix at 0.1%
// (point-bypass) — the count must stay under 5% of the statements:
// there, shipping first is not worth a dry-run method on every policy.
// Elsewhere it is not small (EDR and DR1 at 10% read 14–18%, the point
// mix at 10% and 40% over half), which is what ROADMAP item 1 records.
func TestShipFirstHeadroom(t *testing.T) {
	warm, counted := 2000, 10000
	if raceEnabled || testing.Short() {
		warm, counted = 300, 1500
	}
	point := workload.EDRProfile()
	point.Name = "edr-point"
	point.Mix = workload.Mix{Identity: .5, Spatial: .3, Aggregate: .2}
	gated := map[string]bool{"edr/0.1%": true, "edr/40%": true, "edr-point/0.1%": true}
	for _, p := range []workload.Profile{workload.EDRProfile(), workload.DR1Profile(), point} {
		st, err := workload.NewStream(p)
		if err != nil {
			t.Fatal(err)
		}
		sqls := make([]string, warm+counted)
		for i := range sqls {
			sqls[i] = st.Next().SQL
		}
		s := st.Schema()
		db, err := engine.Open(s, engine.Config{SampleEvery: 1000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, pct := range []float64{0.001, 0.1, 0.4} {
			name := fmt.Sprintf("%s/%g%%", p.Name, pct*100)
			t.Run(name, func(t *testing.T) {
				capacity := int64(pct * float64(s.TotalBytes()))
				pol, err := core.NewPolicyByName("rate-profile", capacity, 1)
				if err != nil {
					t.Fatal(err)
				}
				m, err := federation.New(federation.Config{Schema: s, Engine: db, Granularity: federation.Columns, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				objects := m.Objects()
				var sc federation.Scratch
				var blind, headroom int
				var execUS, headroomUS int64
				for i, sql := range sqls {
					rep, err := m.QueryScratch(&sc, sql, "", nil)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					if i < warm {
						sc.Release()
						continue
					}
					execUS += rep.ExecUS
					_, oneSite := federation.OneSite(rep.Bound)
					yieldBlind, bypassed := oneSite && len(rep.Decisions) > 0, oneSite && len(rep.Decisions) > 0
					for _, d := range rep.Decisions {
						yieldBlind = yieldBlind && objects[d.Object].Size > capacity
						bypassed = bypassed && d.Decision == core.Bypass
					}
					switch {
					case yieldBlind:
						blind++
					case bypassed:
						headroom++
						headroomUS += rep.ExecUS
					}
					sc.Release()
				}
				share := float64(headroom) / float64(counted)
				mean := 0.0
				if headroom > 0 {
					mean = float64(headroomUS) / float64(headroom)
				}
				t.Logf("%d of %d statements (%.2f%%) are single-site, every access bypassed, not yield-blind: %.1f µs mean execute, %.2f%% of the execute time; %d yield-blind",
					headroom, counted, 100*share, mean, 100*float64(headroomUS)/float64(max(execUS, 1)), blind)
				if gated[name] && share >= 0.05 {
					t.Errorf("%.2f%% of the statements could be shipped first, want < 5%%", 100*share)
				}
			})
		}
	}
}

// TestMixedSingleSiteRelay measures, and asserts nothing about, what a
// whole-statement relay carries beyond what the mediator charges. A
// bypassed statement whose tables are all one site's is relayed to that
// site whole, and the node's reply is the answer, so when some of its
// accesses were hits or loads the reply carries their columns too:
// bytes that cross the WAN but are not in D_S. Over the federation
// benchmark's EDR stream (2 000 statements warm, 10 000 counted), at the
// edr-cached (40%) and edr-bypass (0.1%) caches, Rate-Profile on column
// objects, it logs the statements that are single-site, not degraded,
// and have both a bypassed access and a cached one (hit or load); the
// logical bytes a whole-statement relay carries for them (their
// results' bytes); and the bypass bytes the mediator charges for them.
// ROADMAP item 2 records the figures.
func TestMixedSingleSiteRelay(t *testing.T) {
	warm, counted := 2000, 10000
	if raceEnabled || testing.Short() {
		warm, counted = 300, 1500
	}
	st, err := workload.NewStream(workload.EDRProfile())
	if err != nil {
		t.Fatal(err)
	}
	sqls := make([]string, warm+counted)
	for i := range sqls {
		sqls[i] = st.Next().SQL
	}
	s := st.Schema()
	db, err := engine.Open(s, engine.Config{SampleEvery: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pct := range []float64{0.4, 0.001} {
		t.Run(fmt.Sprintf("edr/%g%%", pct*100), func(t *testing.T) {
			capacity := int64(pct * float64(s.TotalBytes()))
			pol, err := core.NewPolicyByName("rate-profile", capacity, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := federation.New(federation.Config{Schema: s, Engine: db, Granularity: federation.Columns, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			var sc federation.Scratch
			var relayed, mixed, frames int
			var relayedBytes, mixedBytes, mixedCharged, frameBytes, frameCharged int64
			for i, sql := range sqls {
				rep, err := m.QueryScratch(&sc, sql, "", nil)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if _, oneSite := federation.OneSite(rep.Bound); i >= warm && oneSite && !rep.Degraded {
					var bypassed, cached bool
					var charged int64
					for _, d := range rep.Decisions {
						if d.Decision == core.Bypass {
							bypassed = true
							charged += d.Yield
						} else {
							cached = true
						}
					}
					if bypassed {
						relayed++
						relayedBytes += rep.Result.Bytes
					}
					if bypassed && cached {
						mixed++
						mixedBytes += rep.Result.Bytes
						mixedCharged += charged
						if strings.HasPrefix(sql, "select * from frame") {
							frames++
							frameBytes += rep.Result.Bytes
							frameCharged += charged
						}
					}
				}
				sc.Release()
			}
			t.Logf("%d of %d statements (%.2f%%) are single-site with a bypass (relayed, or shipped first when yield-blind); %d (%.2f%%) of them mixed, %d of those `select * from frame`",
				relayed, counted, 100*float64(relayed)/float64(counted), mixed, 100*float64(mixed)/float64(counted), frames)
			t.Logf("mixed relays carry %d logical bytes (%.1f KB each), the mediator charges %d of them as bypass bytes (%.1f%%): %d carried and not charged",
				mixedBytes, float64(mixedBytes)/1e3/float64(max(mixed, 1)), mixedCharged,
				100*float64(mixedCharged)/float64(max(mixedBytes, 1)), mixedBytes-mixedCharged)
			t.Logf("the mixed `select * from frame` carry %d logical bytes, %d charged (%.1f%%); all single-site statements with a bypass carry %d",
				frameBytes, frameCharged, 100*float64(frameCharged)/float64(max(frameBytes, 1)), relayedBytes)
		})
	}
}
