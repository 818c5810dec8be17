# bench_proxy.awk — distills the bench-proxy runs (proxy throughput,
# frame encoder, decide-phase contention) into BENCH_proxy.json.
# `go test -bench` lines carry a variable number of metric columns, so
# values are located by their unit token rather than field position.

function val(unit,    i) {
	for (i = 2; i <= NF; i++)
		if ($i == unit)
			return $(i - 1)
	return "0"
}

/^BenchmarkProxyThroughput\/serial/ {
	serial_qps = val("queries/sec")
	serial_p50 = val("p50-us")
	serial_p99 = val("p99-us")
}
/^BenchmarkProxyThroughput\/concurrent8/ {
	conc_qps = val("queries/sec")
	conc_p50 = val("p50-us")
	conc_p99 = val("p99-us")
}
/^BenchmarkWriteFrame/ {
	fns = val("ns/op")
	fallocs = val("allocs/op")
}
/^BenchmarkMediatorDecide\// {
	split($1, parts, "/")
	mode = parts[2]
	sub(/-[0-9]+$/, "", mode)
	dns[mode] = val("ns/op")
	dlw[mode] = val("lockwait-us/op")
}
END {
	printf "{\n"
	printf "  \"serial\": {\"qps\": %s, \"p50_us\": %s, \"p99_us\": %s},\n", serial_qps, serial_p50, serial_p99
	printf "  \"concurrent8\": {\"qps\": %s, \"p50_us\": %s, \"p99_us\": %s},\n", conc_qps, conc_p50, conc_p99
	printf "  \"speedup\": %.2f,\n", conc_qps / serial_qps
	printf "  \"write_frame\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", fns, fallocs
	printf "  \"decide_contention\": {\n"
	printf "    \"note\": \"lockwait_us_per_op is time blocked on the decision lock per query; ns/op additionally reflects host core count\",\n"
	printf "    \"disjoint\": {\"ns_per_op\": %s, \"lockwait_us_per_op\": %s},\n", dns["disjoint"], dlw["disjoint"]
	printf "    \"overlap\": {\"ns_per_op\": %s, \"lockwait_us_per_op\": %s}\n", dns["overlap"], dlw["overlap"]
	printf "  }\n}\n"
}
