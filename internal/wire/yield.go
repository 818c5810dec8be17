package wire

import (
	"sync/atomic"
	"time"
)

// yieldEvery is how long this process's serving loops run between two
// offers of the CPU (offerCPU).
const yieldEvery = 500 * time.Microsecond

var (
	yieldEpoch = time.Now()
	lastYield  atomic.Int64 // time of the last offer, since yieldEpoch

	// osYield gives the calling thread's CPU to another runnable thread
	// of its run queue, if there is one; the tests count its calls.
	osYield = schedYield
)

// offerCPU is called by a serving loop once a reply is written. At most
// once every yieldEvery, process-wide, it yields the calling thread.
//
// The runtime's threads sleep when a connection's next frame has not
// arrived or the decision lock is taken, and are woken a few
// microseconds later; the kernel often queues the woken thread behind
// the waker instead of on an idle CPU (a socket wake-up is a hint that
// the waker is about to sleep, and a virtual CPU that is halted looks
// preempted), and a thread that is serving connection after connection
// never sleeps. The queued thread then waits for the scheduler tick —
// 4 ms at HZ=250 — carrying a request that takes 70 µs: measured on the
// 2-core benchmark host, one statement in a hundred, which is where p99
// is read (ROADMAP has the trace). With the offer, the queued thread
// waits half a millisecond at most; with nothing queued the call
// returns at once, two thousand times a second.
func offerCPU() {
	now := int64(time.Since(yieldEpoch))
	last := lastYield.Load()
	if now-last < int64(yieldEvery) || !lastYield.CompareAndSwap(last, now) {
		return
	}
	osYield()
}
