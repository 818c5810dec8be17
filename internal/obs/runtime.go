package obs

import (
	"math"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"time"
)

// Runtime self-observation metric names. Every daemon enables these so
// tail attribution can distinguish a runtime stall (GC pause,
// scheduler backlog) from a WAN stall.
const (
	MetricGoroutines     = "runtime.goroutines"
	MetricHeapAllocBytes = "runtime.heap_alloc_bytes"
	MetricHeapSysBytes   = "runtime.heap_sys_bytes"
	MetricHeapObjects    = "runtime.heap_objects"
	MetricGCCycles       = "runtime.gc_cycles"
	MetricGCPauseUS      = "runtime.gc_pause_us"
	MetricSchedP50US     = "runtime.sched_latency_p50_us"
	MetricSchedP99US     = "runtime.sched_latency_p99_us"
)

// GCPauseBuckets spans 10µs to ~327ms in ×2 steps — stop-the-world
// pauses in microseconds.
func GCPauseBuckets() []int64 { return ExpBuckets(10, 2, 16) }

// The runtime/metrics a RuntimeReader reads, in its samples' order: the
// four heap classes whose sum is runtime.MemStats.HeapSys (the first
// alone is HeapAlloc), and HeapObjects.
var heapMetrics = [...]string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/free:bytes",
	"/memory/classes/heap/released:bytes",
	"/gc/heap/objects:objects",
}

// RuntimeStats is the Go runtime's state at one RuntimeReader.Read.
type RuntimeStats struct {
	Goroutines     int
	HeapAllocBytes int64 // runtime.MemStats.HeapAlloc
	HeapSysBytes   int64 // runtime.MemStats.HeapSys
	HeapObjects    int64
	GCCycles       int64
	// LastGC is when the last collection ended (zero before the first).
	LastGC time.Time
	// Pauses are the most recent stop-the-world pauses, newest first
	// (debug.GCStats.Pause, at most 256): the reader's memory, valid
	// until its next Read.
	Pauses []time.Duration
}

// RuntimeReader reads the runtime's state without stopping the world,
// which runtime.ReadMemStats does: the heap from runtime/metrics, and
// the collector's cycles and pauses from debug.ReadGCStats (which takes
// the heap lock for a copy of the pause history, into buffers kept
// here). The zero value is ready; a reader is for one goroutine at a
// time.
type RuntimeReader struct {
	heap [len(heapMetrics)]rtmetrics.Sample
	gc   debug.GCStats
}

// Read reads the runtime's state.
func (r *RuntimeReader) Read() RuntimeStats {
	if r.heap[0].Name == "" {
		for i, name := range heapMetrics {
			r.heap[i].Name = name
		}
	}
	rtmetrics.Read(r.heap[:])
	debug.ReadGCStats(&r.gc)
	var v [len(heapMetrics)]int64
	for i := range r.heap {
		if r.heap[i].Value.Kind() == rtmetrics.KindUint64 {
			v[i] = int64(r.heap[i].Value.Uint64())
		}
	}
	return RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: v[0],
		HeapSysBytes:   v[0] + v[1] + v[2] + v[3],
		HeapObjects:    v[4],
		GCCycles:       r.gc.NumGC,
		LastGC:         r.gc.LastGC,
		Pauses:         r.gc.Pause,
	}
}

const schedLatencyMetric = "/sched/latencies:seconds"

// EnableRuntimeStats registers a Snapshot-time collector that refreshes
// Go runtime gauges (goroutines, heap, GC cycles), feeds new GC pauses
// into a runtime.gc_pause_us histogram, and exposes scheduler-latency
// p50/p99 gauges from runtime/metrics. Idempotent per registry; no-op
// on a nil registry. Collection reads the runtime as a RuntimeReader
// does, without stopping the world.
func EnableRuntimeStats(r *Registry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.runtimeEnabled {
		r.mu.Unlock()
		return
	}
	r.runtimeEnabled = true
	r.mu.Unlock()

	c := &runtimeCollector{
		goroutines:  r.Gauge(MetricGoroutines),
		heapAlloc:   r.Gauge(MetricHeapAllocBytes),
		heapSys:     r.Gauge(MetricHeapSysBytes),
		heapObjects: r.Gauge(MetricHeapObjects),
		gcCycles:    r.Gauge(MetricGCCycles),
		gcPause:     r.Histogram(MetricGCPauseUS, GCPauseBuckets()),
		schedP50:    r.Gauge(MetricSchedP50US),
		schedP99:    r.Gauge(MetricSchedP99US),
		sched:       []rtmetrics.Sample{{Name: schedLatencyMetric}},
	}
	r.RegisterCollector(c.collect)
}

// runtimeCollector is EnableRuntimeStats' collector; Snapshots are
// serialized, so it runs on one goroutine at a time.
type runtimeCollector struct {
	goroutines  *Gauge
	heapAlloc   *Gauge
	heapSys     *Gauge
	heapObjects *Gauge
	gcCycles    *Gauge
	gcPause     *Histogram
	schedP50    *Gauge
	schedP99    *Gauge
	lastNumGC   int64
	rt          RuntimeReader
	sched       []rtmetrics.Sample
}

func (c *runtimeCollector) collect() {
	s := c.rt.Read()
	c.goroutines.Set(int64(s.Goroutines))
	c.heapAlloc.Set(s.HeapAllocBytes)
	c.heapSys.Set(s.HeapSysBytes)
	c.heapObjects.Set(s.HeapObjects)
	c.gcCycles.Set(s.GCCycles)

	// Feed only the cycles newer than the previous collection, as far
	// back as the pause history goes.
	if n := s.GCCycles - c.lastNumGC; n > 0 {
		for _, p := range s.Pauses[:min(n, int64(len(s.Pauses)))] {
			c.gcPause.Observe(p.Microseconds())
		}
		c.lastNumGC = s.GCCycles
	}

	rtmetrics.Read(c.sched)
	if c.sched[0].Value.Kind() == rtmetrics.KindFloat64Histogram {
		h := c.sched[0].Value.Float64Histogram()
		c.schedP50.Set(int64(floatHistQuantile(h, 0.50) * 1e6))
		c.schedP99.Set(int64(floatHistQuantile(h, 0.99) * 1e6))
	}
}

// floatHistQuantile estimates the q-quantile of a runtime/metrics
// Float64Histogram, returning the upper bound of the bucket holding
// the rank (the lower bound when the bucket is unbounded above).
func floatHistQuantile(h *rtmetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			// Bucket i spans [Buckets[i], Buckets[i+1]).
			hi := h.Buckets[i+1]
			if math.IsInf(hi, +1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return 0
}
