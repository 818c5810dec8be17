package wire

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countYields replaces the thread yield with a counter until the test
// ends, and starts the interval afresh.
func countYields(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	old := osYield
	osYield = func() { n.Add(1) }
	t.Cleanup(func() { osYield = old })
	lastYield.Store(int64(time.Since(yieldEpoch)))
	return &n
}

// TestOfferCPUYieldsOncePerInterval holds offerCPU to its rate: however
// many serving loops call it and however often, the process yields at
// most once every yieldEvery, and it does yield once the interval is
// over.
func TestOfferCPUYieldsOncePerInterval(t *testing.T) {
	n := countYields(t)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				offerCPU()
			}
		}()
	}
	wg.Wait()
	most := int64(time.Since(start)/yieldEvery) + 1
	if got := n.Load(); got > most {
		t.Fatalf("%d yields in %v, want at most %d (one every %v)", got, time.Since(start), most, yieldEvery)
	}
	before := n.Load()
	time.Sleep(2 * yieldEvery)
	offerCPU()
	if got := n.Load() - before; got != 1 {
		t.Fatalf("%d yields by the first call after an interval without one, want 1", got)
	}
}

// TestOfferCPUAllocatesNothing: it is on the path of every reply.
func TestOfferCPUAllocatesNothing(t *testing.T) {
	countYields(t)
	if a := testing.AllocsPerRun(1000, offerCPU); a != 0 {
		t.Fatalf("offerCPU allocates %.1f times a call, want 0", a)
	}
	osYield = schedYield // the real one, once
	lastYield.Store(0)
	if a := testing.AllocsPerRun(1, offerCPU); a != 0 {
		t.Fatalf("a yield allocates %.1f times, want 0", a)
	}
}

// TestServingLoopsOfferTheCPU: the proxy and the nodes yield while they
// serve queries — a federation that answers for longer than an interval
// has yielded — and not more often than the interval allows.
func TestServingLoopsOfferTheCPU(t *testing.T) {
	n := countYields(t)
	client, sqls, done := hitPathFederation(t)
	defer done()
	start := time.Now()
	for i := 0; time.Since(start) < 20*yieldEvery; i++ {
		if _, err := client.Query(sqls[i%len(sqls)]); err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	got, most := n.Load(), int64(took/yieldEvery)+1
	if got == 0 || got > most {
		t.Fatalf("%d yields while serving for %v, want between 1 and %d", got, took, most)
	}
}
