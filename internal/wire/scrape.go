package wire

import (
	"sort"

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

// observed answers one MsgScrape with what every daemon keeps: its
// registry and its flight recorder (a nil recorder reads as empty). It is
// a node's whole answer.
func (s *server) observed(q ScrapeMsg) *ScrapeResultMsg {
	rec := s.flight
	return &ScrapeResultMsg{
		Source:      s.name,
		Snapshot:    s.reg.Snapshot(),
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

// scrapeProxy adds the proxy's own to what every daemon answers: the flow
// accounting, the cache, the node transport counters and the matching
// ledger records (none without a ledger). The mediator's parts are one
// reading of the decision plane, taken in one hold of its lock, so they
// agree with each other.
func (p *Proxy) scrapeProxy(q ScrapeMsg) *ScrapeResultMsg {
	msg := p.observed(q)
	r := p.med.Read(ledger.Query{
		Object: q.Object,
		Action: q.Action,
		Trace:  q.Trace,
		Limit:  listLimit(q.Limit, DefaultDecisionLimit, MaxDecisionLimit),
	})
	msg.Granularity = p.gran.String()
	msg.TransportTx, msg.TransportRx = p.nodeTx.Value(), p.nodeRx.Value()
	msg.Acct = r.Acct
	msg.Policy, msg.CacheUsed, msg.CacheCapacity = r.Policy, r.Used, r.Capacity
	ids := r.Contents
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids[:min(len(ids), MaxStatsCachedObjects)] {
		msg.CachedObjects = append(msg.CachedObjects, string(id))
	}
	msg.Recorded, msg.Records = r.Recorded, r.Records
	return msg
}
