// SkyServer example: run a synthesized SDSS EDR workload (the
// paper's trace, scaled down 40×) through every cache policy at both
// object granularities and print the network-cost scoreboard.
//
// This is the "what should my federation deploy?" view: sequence cost
// (no caching) at the top, the in-line comparators, and the three
// bypass-yield algorithms, with the static-optimal oracle as the
// floor.
//
//	go run ./examples/skyserver
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/trace"
	"bypassyield/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	profile := workload.ScaledProfile(workload.EDRProfile(), 40)
	fmt.Printf("workload: %s, %d queries (target %.1f GB)\n",
		profile.Name, profile.Queries, float64(profile.TargetSequenceCost)/1e9)

	for _, gran := range []federation.Granularity{federation.Tables, federation.Columns} {
		recs, err := workload.Generate(profile, gran)
		if err != nil {
			return err
		}
		recs = trace.Preprocess(recs)
		reqs := trace.Requests(recs)
		objs := federation.Objects(profile.Schema, gran, nil)
		capacity := profile.Schema.TotalBytes() * 4 / 10

		fmt.Printf("\n=== %s granularity (cache %d MB) ===\n", gran, capacity>>20)
		fmt.Printf("%-16s %12s %10s %8s %8s\n", "policy", "WAN (GB)", "hit rate", "loads", "evicts")

		policies := []core.Policy{
			core.NewNoCache(),
			core.NewLRU(capacity),
			core.NewGDS(capacity),
			core.NewSpaceEffBY(core.NewLandlord(capacity), rand.NewSource(7)),
			core.NewOnlineBY(core.NewLandlord(capacity)),
			core.NewRateProfile(core.RateProfileConfig{Capacity: capacity}),
			core.PlanStatic(capacity, reqs, objs),
		}
		for _, p := range policies {
			sim := &core.Simulator{Policy: p, Objects: objs}
			res, err := sim.Run(reqs)
			if err != nil {
				return err
			}
			a := res.Acct
			fmt.Printf("%-16s %12.2f %9.0f%% %8d %8d\n",
				p.Name(), float64(a.WANBytes())/1e9, a.ByteHitRate()*100, a.Loads, a.Evictions)
		}
	}
	return nil
}
