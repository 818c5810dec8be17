package obs

import (
	"testing"

	"bypassyield/internal/obs/ledger"
)

// The registry sits on every hot path of the federation — per-frame,
// per-access, per-row-scan — so increments and observations must not
// allocate. TestHotPathAllocFree asserts it; the benchmarks measure
// it (`go test -bench . -benchmem ./internal/obs/`).

// record writes rec into led as a batch of one, filled into the slot
// Next hands out, and flushes the sink.
func record(led *ledger.Ledger, rec ledger.DecisionRecord) {
	if slot := led.Next(); slot != nil {
		rec.Seq = slot.Seq
		*slot = rec
	}
	led.Flush()
}

func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DefaultLatencyBuckets())
	cf := r.CounterFamily("cf")
	hf := r.HistogramFamily("hf", ExpBuckets(1024, 4, 16))
	cf.Get("site").Add(1) // materialize the labels once
	hf.Get("site").Observe(1)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Gauge.Set", func() { g.Set(42) }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"CounterFamily.Get.Add", func() { cf.Get("site").Add(1) }},
		{"HistogramFamily.Get.Observe", func() { hf.Get("site").Observe(77) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, allocs)
		}
	}

	// Decision ledger: recording into a nil ledger (the disabled
	// default) must be free, and so must an enabled ring without a sink:
	// it holds records by value.
	var off2 *ledger.Ledger
	rec := ledger.DecisionRecord{
		Policy: "rate-profile", Object: "edr/photoobj.ra", Action: "hit",
		Yield: 1 << 20, Size: 1 << 20, FetchCost: 1 << 20, RP: 0.5,
	}
	if allocs := testing.AllocsPerRun(1000, func() { record(off2, rec) }); allocs != 0 {
		t.Errorf("writing into a disabled Ledger allocates %.1f per op, want 0", allocs)
	}
	led := ledger.New(1024)
	if allocs := testing.AllocsPerRun(1000, func() { record(led, rec) }); allocs != 0 {
		t.Errorf("writing into an enabled Ledger allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", DefaultLatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkCounterFamilyGet(b *testing.B) {
	f := NewRegistry().CounterFamily("f")
	f.Get("photo.sdss.org").Add(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Get("photo.sdss.org").Add(1)
	}
}

func BenchmarkHistogramFamilyObserve(b *testing.B) {
	f := NewRegistry().HistogramFamily("f", DefaultLatencyBuckets())
	f.Get("photo.sdss.org").Observe(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Get("photo.sdss.org").Observe(int64(i))
	}
}

func BenchmarkLedgerRecord(b *testing.B) {
	led := ledger.New(4096)
	rec := ledger.DecisionRecord{
		Policy: "rate-profile", Object: "edr/photoobj.ra", Action: "hit",
		Yield: 1 << 20, Size: 1 << 20, FetchCost: 1 << 20, RP: 0.5,
	}
	b.ReportAllocs()
	b.ResetTimer() // the ring is 4096 records by value: not the recording's cost
	for i := 0; i < b.N; i++ {
		record(led, rec)
	}
}

func BenchmarkLedgerRecordDisabled(b *testing.B) {
	var led *ledger.Ledger
	rec := ledger.DecisionRecord{Policy: "rate-profile", Object: "o", Action: "bypass"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		record(led, rec)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for _, n := range []string{"a", "b", "c", "d"} {
		r.Counter(n).Inc()
		r.Histogram(n+".h", DefaultLatencyBuckets()).Observe(1)
		r.CounterFamily(n + ".f").Get("l1").Add(1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Snapshot()
	}
}
