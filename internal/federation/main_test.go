package federation_test

import (
	"fmt"
	"os"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
)

// usedScratch returns what hands out a Scratch that is anything but
// zero: each has mediated a join with an ORDER BY and then a GROUP BY
// with aggregates and aliases — against a federation of its own, at
// another granularity than most tests use — and has been scrambled after
// both. It is safe for concurrent use, as the pool's New is.
func usedScratch() (func() *federation.Scratch, error) {
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{SampleEvery: 100000, Seed: 7})
	if err != nil {
		return nil, err
	}
	m, err := federation.New(federation.Config{Schema: s, Engine: db, Granularity: federation.Views})
	if err != nil {
		return nil, err
	}
	return func() *federation.Scratch {
		sc := new(federation.Scratch)
		for _, sql := range []string{
			"select p.ra, p.dec, s.z from photoobj p, specobj s where p.objid = s.objid and s.z between 0.1 and 0.2 order by s.z desc",
			"select type, count(*) as n, avg(petrorad_r) from photoobj where ra between 100 and 140 and type = 3 group by type",
		} {
			if _, err := m.QueryScratch(sc, sql, "", nil); err != nil {
				panic(fmt.Sprintf("usedScratch: %s: %v", sql, err))
			}
			sc.Scramble()
			sc.Release()
		}
		return sc
	}, nil
}

// TestMain runs every test of the package — decomposition, degraded
// mode, the flush, the oracle against the simulator, the journal — with
// Query and QueryStmt mediating in used, scrambled memory: the pool they
// take their Scratch from hands out usedScratch's when it is empty, and
// scrambles every Scratch as it goes back, so a report that still
// pointed into one would read garbage. This is the twin of the wire
// tests' hook, which scrambles a serving connection's Scratch after
// every reply. The gates on what the path allocates, and the benchmarks,
// put the zero Scratch and no scrambling back for their own duration.
func TestMain(m *testing.M) {
	used, err := usedScratch()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	federation.PoolScratch(used, true)
	os.Exit(m.Run())
}
