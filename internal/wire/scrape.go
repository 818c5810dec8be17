package wire

import (
	"sort"

	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/obs/ledger"
)

// Scrape list bounds. A scrape with no Limit returns the most recent
// DefaultDecisionLimit ledger records and DefaultExemplarLimit
// exemplars; a Limit is capped per list, at MaxDecisionLimit records
// and MaxExemplarLimit exemplars (exemplars are much larger), which
// keeps a reply under MaxFrame.
const (
	DefaultDecisionLimit = 256
	MaxDecisionLimit     = 4096
	DefaultExemplarLimit = 64
	MaxExemplarLimit     = 512
)

// MaxStatsCachedObjects bounds the cached-object ids a scrape lists;
// larger caches report a prefix (sorted by id).
const MaxStatsCachedObjects = 64

// scrape answers one MsgScrape with what every daemon keeps: its
// registry and its flight recorder (a nil recorder reads as empty).
func scrape(source string, reg *obs.Registry, rec *flightrec.Recorder, q ScrapeMsg) *ScrapeResultMsg {
	return &ScrapeResultMsg{
		Source:      source,
		Snapshot:    reg.Snapshot(),
		Observed:    rec.Observed(),
		Published:   rec.Published(),
		ThresholdUS: rec.ThresholdUS(),
		Exemplars: flightrec.Filter(rec.Snapshot(), q.Outcome, q.Trace, q.MinUS,
			listLimit(q.Limit, DefaultExemplarLimit, MaxExemplarLimit)),
	}
}

// listLimit is one list's share of a scrape's Limit: def for none, and
// at most ceil.
func listLimit(limit, def, ceil int) int {
	if limit <= 0 {
		return def
	}
	return min(limit, ceil)
}

// scrape adds the proxy's own to what every daemon answers: the flow
// accounting, the cache, the node transport counters, the matching
// ledger records (none without a ledger) and the shadow figures. The
// mediator's parts are read under its decision lock, so none is seen
// mid-decision.
func (p *Proxy) scrape(q ScrapeMsg) *ScrapeResultMsg {
	msg := scrape("byproxyd", p.reg, p.flight, q)
	msg.Policy = "none"
	msg.Granularity = p.gran.String()
	msg.Acct = p.med.Accounting()
	msg.TransportTx, msg.TransportRx = p.nodeTx.Value(), p.nodeRx.Value()
	if ps, ok := p.med.PolicyStats(); ok {
		msg.Policy, msg.CacheUsed, msg.CacheCapacity = ps.Name, ps.Used, ps.Capacity
		ids := ps.Contents
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids[:min(len(ids), MaxStatsCachedObjects)] {
			msg.CachedObjects = append(msg.CachedObjects, string(id))
		}
	}
	led := p.med.Ledger()
	msg.Recorded = led.Count()
	msg.Records = led.Select(ledger.Query{
		Object: q.Object,
		Action: q.Action,
		Trace:  q.Trace,
		Limit:  listLimit(q.Limit, DefaultDecisionLimit, MaxDecisionLimit),
	})
	ss := p.med.ShadowStats()
	msg.BypassWANBytes, msg.SavedVsBypassBytes = ss.BypassWANBytes, ss.SavedVsBypassBytes
	msg.OptBoundBytes, msg.CompetitiveRatioMilli = ss.OptBoundBytes, ss.CompetitiveRatioMilli
	return msg
}
