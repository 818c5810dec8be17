package flightrec

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"bypassyield/internal/obs"
)

// TestFastPathAllocFree asserts the acceptance criterion: a capture
// that does not publish (healthy, under threshold, reservoir off)
// costs zero allocations in steady state — Begin pools the capture
// and the slices it accumulates are reused across queries. GC is
// disabled for the measurement so the pool cannot be drained mid-run.
func TestFastPathAllocFree(t *testing.T) {
	rec := New(Config{Capacity: 64, Threshold: time.Hour, SampleEvery: 0}, obs.NewRegistry())

	work := func() {
		c := rec.Begin()
		c.SetQuery("select ra, dec from photoobj", 0xfeed)
		c.SetMediation(120, 4, 9)
		c.Decision("edr/photoobj", "photo.sdss.org", "hit", "", 4096)
		c.Leg("photo.sdss.org", "fetch", "edr/photoobj", c.Now(), 2, 80, 85, nil)
		c.SetEncodeUS(6)
		rec.Finish(c, nil)
	}
	// Warm the pool and grow the capture slices to steady state.
	for i := 0; i < 64; i++ {
		work()
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(1000, work); allocs != 0 {
		t.Fatalf("fast path allocates %.1f objects per query, want 0", allocs)
	}
	if rec.Published() != 0 {
		t.Fatalf("fast-path bench published %d exemplars, want 0", rec.Published())
	}
}

// TestPublishReadsTheRuntimeWithoutMemStats: at the daemons' default
// SampleEvery one healthy query in 256 publishes, on the proxy and on
// every node, so publishing must not stop the world. The snapshot comes
// from runtime/metrics and debug.ReadGCStats and must still be what
// runtime.ReadMemStats reports — the collector's cycle count and the end
// and pause of its last cycle exactly, the live heap to within what the
// test itself allocates in between — and a collection that ends inside
// a query's window must still be attributed as runtime-gc.
func TestPublishReadsTheRuntimeWithoutMemStats(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no cycle but the one below
	rec := New(Config{Capacity: 8, Threshold: time.Nanosecond}, obs.NewRegistry())
	c := rec.Begin()
	c.SetQuery("select ra from photoobj", 1)
	runtime.GC() // ends inside the query's window
	for time.Since(c.start) < 2*time.Millisecond {
		// Unaccounted time for the pause to be attributed out of.
	}
	rec.Finish(c, nil)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	exs := rec.Snapshot()
	if len(exs) != 1 {
		t.Fatalf("%d exemplars, want 1", len(exs))
	}
	got := exs[0].Runtime
	if got.GCCycles != int64(ms.NumGC) || got.LastGCUnixNano != int64(ms.LastGC) {
		t.Errorf("cycles %d ending at %d, MemStats says %d ending at %d", got.GCCycles, got.LastGCUnixNano, ms.NumGC, ms.LastGC)
	}
	if want := int64(ms.PauseNs[(ms.NumGC+255)%256] / 1000); got.LastGCPauseUS != want {
		t.Errorf("last pause %d us, MemStats says %d", got.LastGCPauseUS, want)
	}
	if diff := got.HeapAllocBytes - int64(ms.HeapAlloc); got.HeapAllocBytes <= 0 || diff > 1<<20 || diff < -(1<<20) {
		t.Errorf("heap %d bytes, MemStats says %d", got.HeapAllocBytes, ms.HeapAlloc)
	}
	if got.Goroutines <= 0 {
		t.Errorf("%d goroutines", got.Goroutines)
	}
	if got.LastGCPauseUS > 0 {
		found := false
		for _, p := range exs[0].Attribution {
			found = found || p.Cause == CauseRuntimeGC
		}
		if !found {
			t.Errorf("a collection ended inside the query and paused it %d us, attribution %+v names no %s",
				got.LastGCPauseUS, exs[0].Attribution, CauseRuntimeGC)
		}
	}
}

func BenchmarkFastPath(b *testing.B) {
	rec := New(Config{Capacity: 64, Threshold: time.Hour, SampleEvery: 0}, obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := rec.Begin()
		c.SetQuery("select ra from photoobj", uint64(i)+1)
		c.SetMediation(120, 4, 9)
		c.Leg("photo.sdss.org", "fetch", "edr/photoobj", c.Now(), 2, 80, 85, nil)
		rec.Finish(c, nil)
	}
}

func BenchmarkPublish(b *testing.B) {
	rec := New(Config{Capacity: 256, Threshold: time.Nanosecond}, obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := rec.Begin()
		c.SetQuery("select ra from photoobj", uint64(i)+1)
		c.Leg("photo.sdss.org", "fetch", "edr/photoobj", 0, 2, 80, 85, nil)
		rec.Finish(c, nil)
	}
}
