package federation_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/workload"
)

// TestWideMissDecisionHold measures, and asserts nothing about, the
// decision hold of the widest statement the federation benchmark sends:
// `select * from frame`, 73 column accesses, most of them misses at the
// edr-cached cache (rate-profile at 40% of EDR, column objects, registry,
// ledger and shadows on). It runs the benchmark's 12 000 EDR statements
// in stream order through QueryScratch, as a serving connection does,
// and over the last 10 000 logs for those statements, for `select * from
// photoobj` beside them and for all statements: count, accesses and
// misses per statement, the mean and median DecideUS (the hold as the
// proxy reports it), and their share of all decision time and of all
// mediation time. Each of Rate-Profile's misses recomputes the rate
// profile of every cached entry and heaps them again to pick its
// victims (RateProfile.selectVictims), so a statement's hold grows with
// its misses times the cached entries. ROADMAP item 14 records the
// figures.
func TestWideMissDecisionHold(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a timing log")
	}
	m, _, _ := benchFederation(t)
	st, err := workload.NewStream(workload.EDRProfile())
	if err != nil {
		t.Fatal(err)
	}
	const warm, counted = 2000, 10000
	type class struct {
		name                string
		n, accesses, misses int
		decideUS            int64
		mediate             time.Duration
		holds               []int64
	}
	classes := []*class{{name: "select * from frame"}, {name: "select * from photoobj"}, {name: "every statement"}}
	var sc federation.Scratch
	for i := 0; i < warm+counted; i++ {
		sql := st.Next().SQL
		start := time.Now()
		rep, err := m.QueryScratch(&sc, sql, "", nil)
		took := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if i >= warm {
			for _, c := range classes {
				if c.name != "every statement" && sql != c.name && !strings.HasPrefix(sql, c.name+" ") {
					continue
				}
				c.n++
				c.accesses += len(rep.Decisions)
				for _, d := range rep.Decisions {
					if d.Decision != core.Hit {
						c.misses++
					}
				}
				c.decideUS += rep.DecideUS
				c.mediate += took
				c.holds = append(c.holds, rep.DecideUS)
			}
		}
		sc.Release()
	}
	all := classes[len(classes)-1]
	for _, c := range classes {
		if c.n == 0 {
			t.Errorf("no %q among %d statements", c.name, counted)
			continue
		}
		slices.Sort(c.holds)
		n := float64(c.n)
		t.Logf("%s: %d statements (%.2f%%), %.1f accesses and %.1f misses each; DecideUS mean %.1f, median %d; %.1f%% of decision time, %.1f%% of mediation time",
			c.name, c.n, 100*n/counted, float64(c.accesses)/n, float64(c.misses)/n,
			float64(c.decideUS)/n, c.holds[len(c.holds)/2],
			100*float64(c.decideUS)/float64(max(all.decideUS, 1)), 100*float64(c.mediate)/float64(max(all.mediate, 1)))
	}
}
