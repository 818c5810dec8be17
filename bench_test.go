// Package bypassyield holds the repository-level benchmark harness:
// one testing.B benchmark per table and figure of the paper's
// evaluation (regenerating its rows at reduced scale), plus
// throughput micro-benchmarks for the cache decision path.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale experiment output comes from `go run ./cmd/bybench`.
package bypassyield

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"bypassyield/internal/core"
	"bypassyield/internal/experiments"
	"bypassyield/internal/federation"
	"bypassyield/internal/trace"
	"bypassyield/internal/workload"
)

// benchScale reduces the paper's workload 100× so each benchmark
// iteration stays sub-second; cmd/bybench regenerates full scale.
const benchScale = 100

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite shares one Suite across benchmarks so trace generation is
// paid once and cached, outside every timed loop. On a 2-core Xeon guest
// the four traces the paper's figures read (EDR and DR1, tables and
// columns, at this scale) take ~11 ms to generate; one pass over the
// nine paper experiments takes ~55 ms, ~45 ms of it Figure 10's sweep.
func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() { suite = experiments.NewSuite(benchScale) })
	return suite
}

func benchExperiment(b *testing.B, id string) {
	s := benchSuite()
	// Prime the trace cache outside the timed region.
	if _, err := s.Run(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4QueryContainment(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5ColumnLocality(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6TableLocality(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7TableCurves(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8ColumnCurves(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9TableCacheSweep(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10ColumnCacheSweep(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkTable1ColumnBreakdown(b *testing.B) { benchExperiment(b, "tab1") }
func BenchmarkTable2TableBreakdown(b *testing.B)  { benchExperiment(b, "tab2") }

// Extension experiments (beyond the paper's evaluation).
func BenchmarkXSemSemanticCaching(b *testing.B)   { benchExperiment(b, "xsem") }
func BenchmarkXNetNonUniformNetwork(b *testing.B) { benchExperiment(b, "xnet") }
func BenchmarkXCompCompetitiveRatio(b *testing.B) { benchExperiment(b, "xcomp") }
func BenchmarkXHierCacheHierarchy(b *testing.B)   { benchExperiment(b, "xhier") }

// benchTrace builds a scaled EDR column-granularity request stream
// for the micro-benchmarks.
func benchTrace(b *testing.B) ([]core.Request, map[core.ObjectID]core.Object, int64) {
	b.Helper()
	p := workload.ScaledProfile(workload.EDRProfile(), benchScale)
	recs, err := workload.Generate(p, federation.Columns)
	if err != nil {
		b.Fatal(err)
	}
	reqs := trace.Requests(trace.Preprocess(recs))
	objs := federation.Objects(p.Schema, federation.Columns, nil)
	return reqs, objs, p.Schema.TotalBytes() * 4 / 10
}

// benchPolicy measures end-to-end decision+accounting throughput of
// one policy over the trace; the reported metric is ns per access.
func benchPolicy(b *testing.B, mk func(capacity int64) core.Policy) {
	reqs, objs, capacity := benchTrace(b)
	var accesses int64
	for _, r := range reqs {
		accesses += int64(len(r.Accesses))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := mk(capacity)
		sim := &core.Simulator{Policy: p, Objects: objs}
		if _, err := sim.Run(reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(accesses), "ns/access")
}

func BenchmarkPolicyRateProfile(b *testing.B) {
	benchPolicy(b, func(c int64) core.Policy {
		return core.NewRateProfile(core.RateProfileConfig{Capacity: c})
	})
}

func BenchmarkPolicyOnlineBY(b *testing.B) {
	benchPolicy(b, func(c int64) core.Policy {
		return core.NewOnlineBY(core.NewLandlord(c))
	})
}

func BenchmarkPolicySpaceEffBY(b *testing.B) {
	benchPolicy(b, func(c int64) core.Policy {
		return core.NewSpaceEffBY(core.NewLandlord(c), rand.NewSource(1))
	})
}

func BenchmarkPolicyGDS(b *testing.B) {
	benchPolicy(b, func(c int64) core.Policy { return core.NewGDS(c) })
}

// BenchmarkWorkloadGenerate measures trace synthesis (including the
// sequence-cost calibration loop).
func BenchmarkWorkloadGenerate(b *testing.B) {
	p := workload.ScaledProfile(workload.EDRProfile(), benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(p, federation.Columns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticPlan measures the offline knapsack planner.
func BenchmarkStaticPlan(b *testing.B) {
	reqs, objs, capacity := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PlanStatic(capacity, reqs, objs)
	}
}

func BenchmarkXViewGranularity(b *testing.B) { benchExperiment(b, "xview") }

func BenchmarkXScaleFederationGrowth(b *testing.B) { benchExperiment(b, "xscale") }
