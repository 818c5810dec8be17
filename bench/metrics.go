package main

// metricDef mirrors one metric entry of BENCHMARK.json; bench_test.go
// checks the two stay the same.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEndMetrics are what a user of the federation sees. Their
// regression bounds live in BENCHMARK.json, where -compare reads them.
var endToEndMetrics = []metricDef{
	{"qps", "1/s", "higher"},    // timed statements / timed wall seconds
	{"p50_ms", "ms", "lower"},   // caller-side latency, exact sorted samples
	{"p99_ms", "ms", "lower"},   // ≥ 10 000 samples, so ≥ 100 beyond it
	{"wan_bytes", "B", "lower"}, // D_L + D_S over warm-up + timed
	{"setup_s", "s", "lower"},   // generate + engine open + start + warm-up
}

// perLayerMetrics come from the traced pass; one layer is one module
// of internal/. README.md names the end-to-end metric and workload
// each should move.
var perLayerMetrics = []metricDef{
	{"sqlparse.parse_us", "us", "lower"},
	{"engine.bind_us", "us", "lower"},
	{"engine.execute_us", "us", "lower"},
	{"engine.rows_scanned_per_op", "count", "lower"},
	{"federation.decompose_us", "us", "lower"},
	{"federation.decide_us", "us", "lower"},
	{"federation.lock_wait_us", "us", "lower"},
	{"federation.lock_wait_contended_us", "us", "lower"},
	{"federation.query_us", "us", "lower"},
	{"federation.decision_shards", "count", "lower"},
	{"core.policy_access_ns", "ns", "lower"},
	{"core.byte_hit_ratio", "ratio", "higher"},
	{"core.wan_reduction", "ratio", "higher"},
	{"core.loads", "count", "lower"},
	{"core.bypasses", "count", "lower"},
	{"core.hits", "count", "higher"},
	{"wire.encode_small_us", "us", "lower"},
	{"wire.decode_small_us", "us", "lower"},
	{"wire.encode_bulk_us", "us", "lower"},
	{"wire.decode_bulk_us", "us", "lower"},
	{"wire.frame_bytes_per_op", "B", "lower"},
	{"wire.ping_rtt_us", "us", "lower"},
	{"wire.node_query_us", "us", "lower"},
	{"wire.legs_per_query", "count", "lower"},
	{"wire.pool_waits", "count", "lower"},
	{"wire.transport_tx_bytes_per_op", "B", "lower"},
	{"wire.transport_rx_bytes_per_op", "B", "lower"},
	{"wire.proxy_overhead_us", "us", "lower"},
	{"persist.wal_append_us", "us", "lower"},
	{"persist.wal_append_sync_us", "us", "lower"},
	{"persist.wal_bytes_per_access", "B", "lower"},
	{"persist.snapshot_ms", "ms", "lower"},
	{"persist.replay_records_per_ms", "1/ms", "higher"},
	{"persist.restart_ms", "ms", "lower"},
	{"obs.overhead_us", "us", "lower"},
	{"workload.gen_us", "us", "lower"},
	{"runtime.alloc_kb_per_op", "KiB", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.peak_rss_mb", "MiB", "lower"},
	{"client.query_us", "us", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}
