package experiments

import (
	"fmt"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/federation"
)

// XAvail measures degraded-mode availability: the spectroscopic site
// goes dark for a fraction of the trace (spread over several outage
// windows) and the mediator applies the fault-tolerant decision rules
// — accesses to the dead site are forced to serve from cache when the
// object is resident (stale hits) and dropped otherwise (failed legs,
// charged nothing). A bypass-yield cache thus masks part of every
// outage; without a cache, all of the dead site's yield is lost.
func (s *Suite) XAvail() (*Table, error) {
	reqs, err := s.requests("edr", federation.Columns)
	if err != nil {
		return nil, err
	}
	objs, dbBytes, err := s.objects("edr", federation.Columns)
	if err != nil {
		return nil, err
	}
	capacity := int64(s.CachePct * float64(dbBytes))
	const downSite = catalog.SiteSpec
	const windows = 4

	t := &Table{
		ID:    "xavail",
		Title: fmt.Sprintf("Degraded-mode availability: %s dark for a fraction of the trace (EDR, columns)", downSite),
		Columns: []string{"outage%", "policy", "availability", "stale-served(GB)",
			"lost(GB)", "failed-legs", "WAN(GB)"},
	}
	n := int64(len(reqs))
	for _, downPct := range []int{0, 10, 25, 50} {
		// The outage total is split into `windows` evenly spaced blackouts
		// so the cache sees both cold and warmed outage entries.
		span := n * int64(downPct) / 100 / windows
		down := func(seq int64) bool {
			if span == 0 {
				return false
			}
			pos := seq % (n / windows)
			return pos < span
		}
		for _, ps := range []struct {
			name string
			p    core.Policy
		}{
			{"rate-profile", core.NewRateProfile(core.RateProfileConfig{Capacity: capacity, Episodes: figureEpisodes})},
			{"no-cache", core.NewNoCache()},
		} {
			var acct core.Accounting
			var requested, stale, lost, failedLegs int64
			for _, r := range reqs {
				acct.Queries++
				for _, a := range r.Accesses {
					obj, ok := objs[a.Object]
					if !ok {
						continue
					}
					requested += a.Yield
					// Mirror the mediator's degraded path: the policy is not
					// consulted while its site is dark.
					if down(r.Seq) && obj.Site == downSite {
						if ps.p.Contains(obj) {
							if err := core.Account(&acct, obj, a.Yield, core.Hit); err != nil {
								return nil, err
							}
							stale += a.Yield
						} else {
							lost += a.Yield
							failedLegs++
						}
						continue
					}
					d := ps.p.Access(r.Seq, obj, a.Yield)
					if err := core.Account(&acct, obj, a.Yield, d); err != nil {
						return nil, err
					}
				}
			}
			t.AddRow(
				fmt.Sprintf("%d", downPct),
				ps.name,
				fmt.Sprintf("%.3f", rate(acct.DeliveredBytes(), requested)),
				gbf(stale),
				gbf(lost),
				fmt.Sprintf("%d", failedLegs),
				gbf(acct.WANBytes()),
			)
		}
	}
	t.AddNote("cache = %.0f%% of DB; outage split into %d evenly spaced windows; availability = delivered bytes / requested bytes", s.CachePct*100, windows)
	t.AddNote("forced stale hits charge D_C (the copy is local), failed legs charge nothing — Σ delivered = D_A exactly as in the live mediator's degraded mode")
	return t, nil
}
