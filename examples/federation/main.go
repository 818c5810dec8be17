// Federation example: a complete SkyQuery-style deployment in one
// process — three database nodes (one per SDSS site), the
// mediator-collocated bypass-yield proxy, and a client — wired over
// real TCP sockets on localhost.
//
// The client runs the paper's example join plus a burst of region
// scans, and prints how each query's objects were handled (bypass →
// load → hit) and the proxy's final flow accounting.
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"log"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/wire"
)

const paperJoin = `select p.objID, p.ra, p.dec, p.modelMag_g, s.z as redshift
 from SpecObj s, PhotoObj p
 where p.ObjID = s.ObjID and s.specClass = 2 and s.zConf > 0.95
 and p.modelMag_g > 17.0 and s.z < 0.01`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	s := catalog.EDR()
	// One engine instance stands in for every site's data (the same
	// seed everywhere keeps them consistent); ownership is enforced
	// per query by each node.
	db, err := engine.Open(s, engine.Config{SampleEvery: 20000, Seed: 1})
	if err != nil {
		return err
	}

	// Start one database node per site.
	sites := map[string]bool{}
	for i := range s.Tables {
		sites[s.Tables[i].Site] = true
	}
	addrs := map[string]string{}
	for site := range sites {
		node := wire.NewDBNode(site, db)
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer node.Close()
		addrs[site] = addr
		fmt.Printf("node  %-16s %s\n", site, addr)
	}

	// The proxy: mediator + bypass-yield cache at 40% of the release.
	capacity := s.TotalBytes() * 4 / 10
	policy := core.NewRateProfile(core.RateProfileConfig{Capacity: capacity})
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Policy: policy, Granularity: federation.Columns,
	})
	if err != nil {
		return err
	}
	proxy := wire.NewProxy(med, federation.Columns, addrs)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer proxy.Close()
	fmt.Printf("proxy %-16s %s (cache %d MB)\n\n", "mediator", paddr, capacity>>20)

	client, err := wire.DialTimeout(paddr, 5*time.Second)
	if err != nil {
		return err
	}
	defer client.Close()

	queries := []string{
		paperJoin,
		"select count(*) from specobj where z < 0.3",
	}
	// A scan campaign over the photometric table: the same columns,
	// shifting sky regions — the paper's schema-locality pattern. The
	// cache rents (bypasses) until the cumulative yield justifies
	// loading the columns, then serves hits.
	for lo := 0; lo < 300; lo += 60 {
		queries = append(queries, fmt.Sprintf(
			"select ra, dec, modelmag_r from photoobj where ra between %d and %d", lo, lo+130))
	}
	queries = append(queries,
		"select z, zconf from specobj where z between 0.5 and 2.5",
		"select z, zconf from specobj where z between 1.0 and 3.0",
		"select z, zconf from specobj where z between 0.2 and 2.2",
	)
	for i, sql := range queries {
		res, err := client.Query(sql)
		if err != nil {
			return fmt.Errorf("query %d: %w", i+1, err)
		}
		fmt.Printf("Q%d: %d rows, %.2f MB yield\n", i+1, res.Rows, float64(res.Bytes)/1e6)
		for _, d := range res.Decisions {
			fmt.Printf("    %-7s %-28s %8.2f MB\n", d.Decision, d.Object, float64(d.Yield)/1e6)
		}
	}

	st, err := client.Scrape(wire.ScrapeMsg{})
	if err != nil {
		return err
	}
	a := st.Acct
	fmt.Printf("\npolicy %s: %d hits / %d bypasses / %d loads\n",
		st.Policy, a.Hits, a.Bypasses, a.Loads)
	fmt.Printf("WAN %.2f MB (bypass %.2f + fetch %.2f); delivered %.2f MB; byte hit rate %.0f%%\n",
		float64(a.WANBytes())/1e6, float64(a.BypassBytes)/1e6, float64(a.FetchBytes)/1e6,
		float64(a.DeliveredBytes())/1e6, a.ByteHitRate()*100)
	fmt.Printf("node transport: %d B tx, %d B rx\n", st.TransportTx, st.TransportRx)
	return nil
}
