package federation

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
)

// The decide-phase contention benchmark: parallel clients drive the
// mediator's decision phase directly (execution is lock-free and would
// only mask contention) over either disjoint per-client object sets or
// one shared hot set. Both serialize on the one decision lock; the
// pair shows what the policy's own per-object state costs under it.

const (
	benchTables   = 64 // object universe
	benchObjsPerQ = 4  // objects each query touches
	// Yield sized to the object scale: each access's share matches one
	// table's bytes, so online-by's ski-rental accumulator crosses once
	// and decisions settle into the cheap steady-state path (the
	// benchmark measures decision-plane serialization, not accumulator
	// arithmetic).
	benchYield     = benchObjsPerQ * 8 * 8
	benchTableRows = 8
)

// benchDecideSchema builds a release of n small single-column tables
// spread over four sites, so parallel clients can touch disjoint
// object sets.
func benchDecideSchema(n int) *catalog.Schema {
	s := &catalog.Schema{Name: "bench"}
	for i := 0; i < n; i++ {
		s.Tables = append(s.Tables, catalog.Table{
			Name: fmt.Sprintf("t%02d", i),
			Columns: []catalog.Column{
				{Name: "v", Type: catalog.Float64, Min: 0, Max: 1},
			},
			Rows: benchTableRows,
			Site: fmt.Sprintf("site-%d", i%4),
		})
	}
	return s
}

// benchMediator assembles a mediator over the bench schema.
func benchMediator(b *testing.B) *Mediator {
	b.Helper()
	s := benchDecideSchema(benchTables)
	eng, err := engine.Open(s, engine.Config{Seed: 1})
	if err != nil {
		b.Fatalf("engine.Open: %v", err)
	}
	// Everything fits: decisions settle into the cheap hit path, so
	// the benchmark measures decision-plane serialization rather
	// than policy eviction work.
	pol, err := core.NewPolicyByName("online-by", s.TotalBytes()*2, 1)
	if err != nil {
		b.Fatalf("NewPolicyByName: %v", err)
	}
	m, err := New(Config{Schema: s, Engine: eng, Policy: pol, Granularity: Tables})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	return m
}

// benchAccesses pre-resolves one client's accesses: objsPerQ tables
// starting at table base, yield split evenly.
func benchAccesses(m *Mediator, base int) []access {
	accs := make([]access, benchObjsPerQ)
	for i := range accs {
		ti := (base + i) % benchTables
		accs[i] = access{obj: &m.index.tables[ti].obj, table: ti, yield: benchYield / benchObjsPerQ}
	}
	return accs
}

func benchmarkDecide(b *testing.B, disjoint bool) {
	m := benchMediator(b)
	var clientSeq atomic.Int64
	var failed atomic.Int64
	var lockWaitUS atomic.Int64
	// At least 8 parallel clients regardless of host core count.
	b.SetParallelism(max(8/runtime.GOMAXPROCS(0), 1))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := 0
		if disjoint {
			// Each client owns a distinct table range; ranges tile the
			// universe so clients never share an object.
			base = int(clientSeq.Add(1)-1) * benchObjsPerQ % benchTables
		}
		accs := benchAccesses(m, base)
		var wait int64
		for pb.Next() {
			res := &engine.Result{Bytes: benchYield}
			rep, err := m.decide("bench", "", res, accs)
			if err != nil {
				failed.Add(1)
				return
			}
			wait += rep.LockWaitUS
		}
		lockWaitUS.Add(wait)
	})
	b.StopTimer()
	if failed.Load() != 0 {
		b.Fatalf("%d decide calls failed", failed.Load())
	}
	// Time blocked on the decision lock per decide.
	b.ReportMetric(float64(lockWaitUS.Load())/float64(b.N), "lockwait-us/op")
	// The reconciliation invariant must survive the benchmark workload.
	acct := m.Accounting()
	if acct.DeliveredBytes() != acct.YieldBytes {
		b.Fatalf("D_A mismatch: delivered=%d yield=%d", acct.DeliveredBytes(), acct.YieldBytes)
	}
}

// BenchmarkMediatorDecide measures decision-phase throughput under
// parallel load. disjoint = every client touches its own objects;
// overlap = all clients hammer one hot object set.
func BenchmarkMediatorDecide(b *testing.B) {
	b.Run("disjoint", func(b *testing.B) { benchmarkDecide(b, true) })
	b.Run("overlap", func(b *testing.B) { benchmarkDecide(b, false) })
}
