// Quickstart: the bypass-yield cache in a dozen lines.
//
// Two objects live at a remote site: a big table and a small one. A
// stream of queries yields partial results from each. The cache
// decides, per access, whether to serve in cache, load the object, or
// bypass to the server — minimizing total WAN traffic rather than
// local latency.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"bypassyield/internal/core"
)

func main() {
	big := core.Object{ID: "sky/photoobj", Size: 40 << 20, FetchCost: 40 << 20, Site: "photo"}
	small := core.Object{ID: "sky/specobj", Size: 8 << 20, FetchCost: 8 << 20, Site: "spec"}
	cold := core.Object{ID: "sky/mask", Size: 30 << 20, FetchCost: 30 << 20, Site: "meta"}

	// A cache smaller than the data: big and small fit together, cold
	// does not — and should never be loaded for its tiny yields.
	cache := core.NewRateProfile(core.RateProfileConfig{Capacity: 60 << 20})

	objects := map[core.ObjectID]core.Object{big.ID: big, small.ID: small, cold.ID: cold}
	var trace []core.Request
	for t := int64(1); t <= 200; t++ {
		// The workload hammers both science tables; every tenth query
		// probes the cold metadata table for a few hundred kilobytes.
		req := core.Request{Seq: t, Accesses: []core.Access{
			{Object: small.ID, Yield: 6 << 20},
			{Object: big.ID, Yield: 20 << 20},
		}}
		if t%10 == 0 {
			req.Accesses = append(req.Accesses, core.Access{Object: cold.ID, Yield: 512 << 10})
		}
		trace = append(trace, req)
	}

	sim := &core.Simulator{Policy: cache, Objects: objects}
	res, err := sim.Run(trace)
	if err != nil {
		panic(err)
	}

	noCache := &core.Simulator{Policy: core.NewNoCache(), Objects: objects}
	base, err := noCache.Run(trace)
	if err != nil {
		panic(err)
	}

	a := res.Acct
	fmt.Printf("queries:        %d (%d object accesses)\n", a.Queries, a.Accesses)
	fmt.Printf("decisions:      %d hits, %d bypasses, %d loads\n", a.Hits, a.Bypasses, a.Loads)
	fmt.Printf("WAN traffic:    %d MB (bypass %d MB + fetch %d MB)\n",
		a.WANBytes()>>20, a.BypassBytes>>20, a.FetchBytes>>20)
	fmt.Printf("without cache:  %d MB\n", base.Acct.WANBytes()>>20)
	fmt.Printf("savings:        %.1fx\n", float64(base.Acct.WANBytes())/float64(a.WANBytes()))
	fmt.Printf("byte hit rate:  %.0f%%\n", a.ByteHitRate()*100)
	fmt.Printf("cold cached:    %v (bypassed, as it should be)\n", cache.Contains(cold))
}
