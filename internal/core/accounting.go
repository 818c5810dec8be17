package core

// Accounting tracks the byte flows of Figure 1 in the paper for one
// cache over one trace. The WAN traffic to be minimized is
// BypassBytes + FetchBytes (D_S + D_L); the client always receives
// DeliveredBytes() = BypassBytes-equivalent yield + CacheBytes (D_A),
// independent of the caching configuration.
type Accounting struct {
	// Queries is the number of requests processed.
	Queries int64
	// Accesses is the number of per-object accesses processed (a
	// multi-object query contributes several).
	Accesses int64

	// Hits, Bypasses, Loads count decisions; Evictions counts objects
	// removed from the cache to make space.
	Hits      int64
	Bypasses  int64
	Loads     int64
	Evictions int64

	// BypassBytes is D_S: WAN bytes shipped server→client for
	// bypassed accesses (yield scaled by per-byte transfer cost).
	BypassBytes int64
	// FetchBytes is D_L: WAN bytes spent loading objects into the
	// cache.
	FetchBytes int64
	// CacheBytes is D_C: LAN bytes served cache→client. Not WAN
	// traffic; tracked for the conservation law D_A = D_S + D_C.
	CacheBytes int64
	// YieldBytes is the total raw yield of all accesses (unscaled by
	// transfer cost): the data volume the application received.
	YieldBytes int64
}

// WANBytes returns the total wide-area traffic D_S + D_L, the
// quantity every bypass-yield algorithm minimizes.
func (a Accounting) WANBytes() int64 { return a.BypassBytes + a.FetchBytes }

// DeliveredBytes returns D_A = D_S + D_C on uniform networks: the
// bytes delivered to the application. (On non-uniform networks
// BypassBytes is cost-scaled; use YieldBytes for the raw volume.)
func (a Accounting) DeliveredBytes() int64 { return a.BypassBytes + a.CacheBytes }

// ByteHitRate returns the fraction of yield bytes served from cache —
// the yield-model analogue of hit rate.
func (a Accounting) ByteHitRate() float64 {
	if a.YieldBytes == 0 {
		return 0
	}
	return float64(a.CacheBytes) / float64(a.YieldBytes)
}

// Account charges one access's decision to the accounting, applying
// the Figure-1 flow rules: a hit serves the yield from cache (LAN), a
// bypass ships the cost-scaled yield over the WAN, and a load pays the
// fetch cost over the WAN and then serves the yield from cache. It
// returns an error for an out-of-range decision, and charges nothing
// for it.
func Account(a *Accounting, obj Object, yield int64, d Decision) error {
	switch d {
	case Hit:
		a.Hits++
		a.CacheBytes += yield
	case Bypass:
		a.Bypasses++
		a.BypassBytes += obj.BypassCost(yield)
	case Load:
		a.Loads++
		a.FetchBytes += obj.FetchCost
		a.CacheBytes += yield
	default:
		return &BadDecisionError{Decision: d}
	}
	a.Accesses++
	a.YieldBytes += yield
	return nil
}

// Add accumulates another accounting into a.
func (a *Accounting) Add(b Accounting) {
	a.Queries += b.Queries
	a.Accesses += b.Accesses
	a.Hits += b.Hits
	a.Bypasses += b.Bypasses
	a.Loads += b.Loads
	a.Evictions += b.Evictions
	a.BypassBytes += b.BypassBytes
	a.FetchBytes += b.FetchBytes
	a.CacheBytes += b.CacheBytes
	a.YieldBytes += b.YieldBytes
}
