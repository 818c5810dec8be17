GO ?= go

.PHONY: all build vet test race bench-smoke bench-fed chaos crash fuzz-smoke experiments examples

all: vet test

build:
	$(GO) build ./...

# vet also fails on any file gofmt would change, so that formatting is
# checked by CI rather than by hand.
vet: build
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Everything under the race detector, then again, three times over, the
# tests of what this detector is for in the decision plane: a policy
# decides the same whether its per-object state is found by slot or by
# id (restored, cloned and colliding universes included), the
# ledger's ring, which has no lock of its own, is written by each query's
# decide loop while scrapes read it, with the accounting and the shadows,
# in one hold of the decision lock through the mediator — in the
# mediator, and through the proxy's MsgScrape while clients query —
# the reports of concurrent QueryStmt callers own their memory, none
# aliasing the pooled Scratch it was mediated in — and the registry's
# one generic metric family, which now carries counters, gauges and
# histograms alike, is created, read and snapshotted concurrently.
RACE_CORE_RUN = TestSlotsNeverChangeADecision|TestObjTable
RACE_FEDERATION_RUN = TestLedgerUnderConcurrentDecisions|TestReportsOwnTheirMemory
RACE_WIRE_RUN = TestProxyConcurrentClients|TestScrapeIsOneReading
RACE_OBS_RUN = TestConcurrentUse
race:
	$(CHECK_RUN) '$(RACE_CORE_RUN)' ./internal/core/
	$(CHECK_RUN) '$(RACE_FEDERATION_RUN)' ./internal/federation/
	$(CHECK_RUN) '$(RACE_WIRE_RUN)' ./internal/wire/
	$(CHECK_RUN) '$(RACE_OBS_RUN)' ./internal/obs/
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run '$(RACE_CORE_RUN)' ./internal/core/
	$(GO) test -race -count=3 -run '$(RACE_FEDERATION_RUN)' ./internal/federation/
	$(GO) test -race -count=3 -run '$(RACE_WIRE_RUN)' ./internal/wire/
	$(GO) test -race -count=3 -run '$(RACE_OBS_RUN)' ./internal/obs/

# check-run PATTERN PKG... fails when an alternative of a -run pattern
# matches no test in the packages, as `go test -list` names them: a
# renamed test would otherwise drop out of a CI job without a word.
CHECK_RUN = sh -c 'pat=$$1; shift; names=$$($(GO) test -list . "$$@") || exit 1; \
	for alt in $$(echo "$$pat" | tr "|" " "); do \
		echo "$$names" | grep -Eq -- "$$alt" || { echo "-run alternative $$alt matches no test in $$*"; exit 1; }; \
	done' check-run

# The fault-tolerance suite under the race detector: deterministic
# fault injection (internal/faultnet), the per-site circuit breaker
# (down after 3 consecutive failed RPCs, back on the first ping that
# succeeds), a failed WAN leg that keeps the answer, the mediator's
# degraded-mode accounting, the 3-site black-hole end-to-end cycle, and
# one fetch per load over a slow WAN. The synth chaos run
# (TestChaosSynth in cmd/by, the package of `by synth`) streams the
# flight recorder's fault exemplars to chaos_exemplars.jsonl (archived
# by CI).
CHAOS_RUN = TestChaos|TestBreaker|TestSiteUnavailable|TestDownSiteReadmittedWithinOneProbe|TestLegFailuresKeepTheAnswer|TestDegraded|TestHealthDetached|TestEveryLoadIsOneFetch
chaos:
	$(CHECK_RUN) '$(CHAOS_RUN)' ./internal/wire/ ./internal/federation/
	$(CHECK_RUN) 'TestChaosSynth' ./cmd/by/
	$(GO) test -race -v ./internal/faultnet/
	$(GO) test -race -v -run '$(CHAOS_RUN)' ./internal/wire/ ./internal/federation/
	CHAOS_EXEMPLARS_OUT=$(CURDIR)/chaos_exemplars.jsonl \
		$(GO) test -race -v -run 'TestChaosSynth' ./cmd/by/

# Kill-tolerant recovery suite under the race detector: a real
# byproxyd subprocess is SIGKILLed mid-workload (and deterministically
# crashed mid-WAL-write at a persistence crash point the test arms
# through the helper's environment, not a flag), then restarted on the
# same -state-dir; it must come back warm with Σ ledger yields = D_A
# and zero WAN refetches for the persisted cache, and corrupted
# snapshot/WAL tails must fall back to the previous generation. The
# upgrade test restores state directories an older build wrote under
# -policy gds (cmd/byproxyd/testdata/regen-parent-fixtures.sh writes
# them from a commit).
# Snapshot format compatibility rides along: version-1 snapshots and
# one-section version-2 snapshots restore, and a state directory whose
# snapshots carry several sections (a cache the previous build split
# into slices) is refused by name and restarts cold, a state directory
# written under another policy (one no longer built included) restarts
# cold, and the bytes a snapshot and a WAL are written in are pinned to
# committed files.
# Every startup's recovery report is appended to crash_recovery.log
# (archived by CI).
CRASH_PROXY_RUN = TestKillRecoveryEndToEnd|TestFaultInjectedTornWALRecovery|TestCorruptTailFallsBackAcrossRestart|TestParentStateAcrossUpgrade
CRASH_PERSIST_RUN = TestV1SnapshotRestores|TestOneSectionV2Restores|TestMultiSectionSnapshotColdStarts|TestStateFormatIsPinned|TestRefusedPolicyBlobStartsCold|TestPolicyChangeColdStarts
crash:
	$(CHECK_RUN) '$(CRASH_PROXY_RUN)' ./cmd/byproxyd/
	$(CHECK_RUN) 'TestBreakerRestartCycle' ./internal/wire/
	$(CHECK_RUN) '$(CRASH_PERSIST_RUN)' ./internal/persist/
	rm -f crash_recovery.log
	CRASH_RECOVERY_LOG=$(CURDIR)/crash_recovery.log \
		$(GO) test -race -v -count=1 -run '$(CRASH_PROXY_RUN)' ./cmd/byproxyd/
	$(GO) test -race -v -count=1 -run 'TestBreakerRestartCycle' ./internal/wire/
	$(GO) test -race -v -count=1 -run '$(CRASH_PERSIST_RUN)' ./internal/persist/
	cat crash_recovery.log

# A bounded fuzz of what faces untrusted or crash-torn bytes: the wire
# frame reader, the binary query/result decoders, the persistence WAL
# walker, and the snapshot frame + policy-blob decoders must never panic
# or over-allocate; a client's statement, parsed, bound and executed,
# must never panic, fail only with a parse, bind or execution error, and
# return what the reference evaluator returns — and parse, fail and
# answer the same in a serving connection's reused, scrambled memory as
# in memory of its own (FuzzParse, FuzzExecute), as a reply must decode
# the same into a Client's store as into nothing, and a proxy's check of
# a reply it relays undecoded must accept exactly what decodes and
# forward it as the decoded reply would be encoded (FuzzDecodeResult).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=30s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeResult -fuzztime=30s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=30s ./internal/persist/
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=30s ./internal/persist/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/sqlparse/
	$(GO) test -run='^$$' -fuzz=FuzzExecute -fuzztime=30s ./internal/engine/

# A fast allocation/throughput smoke over the hot paths: the obs
# registry (must stay allocation-free), the executor with results kept
# and released and the sizing of statements without their tuples
# (SizeInto: every statement, then the single-table, join and GROUP BY
# ones alone), the join ones executed and released as the daemons run
# them (ExecuteInto: the proxy on a hit, a node on a shipped join), a
# Rate-Profile miss that compares victims and a
# 73-access statement whose 46 such misses share one tick, one access of
# the shadow sums (always-bypass and the ski-rental bound), the mediator's
# whole query path (bind, size, decompose, decide, flush and copy the
# report out: three passes over the 3 000 EDR statements of the
# federation benchmark's traced pass, for callers that keep their
# reports; as /tables, one caller at table granularity, the shape of the
# benchmark's tables-replay; and, as /scratch, for a serving
# connection's one reused Scratch, with the decision hold its reports
# give), the decision loop alone over those statements' accesses
# at the 40% and the 0.1% cache, the same statements end to end
# through Client, Proxy and Mediator on loopback (bytes and allocations
# per hit, and the client's Reads per reply) and again at the edr-bypass
# cache, where most are shipped to their node before the decision, the
# node's side of the same serving loop (BenchmarkNodeSubqueryEDR: one
# sub-query frame replayed to a node, read, executed and answered), so
# both daemons are covered, the frame encoder and result codec, the statement reader (Parse and a
# reused Parser's Parse over both mixes' 12 000 statements, one op a
# statement), the workload generator (one Stream.Next per op, for the
# EDR and point mixes, and a whole 1/100 EDR trace with its
# calibration), and one end-to-end experiment. All
# but the last are distilled into BENCH_obs.json (ns/op, B/op, allocs/op
# and any metric a benchmark reports per op) so CI can archive hot-path
# numbers across commits.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1000x ./internal/obs/ | tee bench_obs.txt
	$(GO) test -run='^$$' -bench=BenchmarkExecuteEDR -benchmem -benchtime=9000x ./internal/engine/ | tee -a bench_obs.txt
	$(GO) test -run='^$$' -bench='BenchmarkRateProfile(Wide)?Miss|BenchmarkShadowAccess' -benchmem -benchtime=100000x ./internal/core/ | tee -a bench_obs.txt
	$(GO) test -run='^$$' -bench='BenchmarkMediatorQueryEDR|BenchmarkDecideLoop' -benchmem -benchtime=9000x ./internal/federation/ | tee -a bench_obs.txt
	$(GO) test -run='^$$' -bench='BenchmarkProxy(Hit|Bypass)EDR|BenchmarkNodeSubqueryEDR' -benchmem -benchtime=9000x ./internal/wire/ | tee -a bench_obs.txt
	$(GO) test -run='^$$' -bench='BenchmarkWriteFrame|BenchmarkResultCodec' -benchmem -benchtime=100000x ./internal/wire/ | tee -a bench_obs.txt
	$(GO) test -run='^$$' -bench=BenchmarkParse -benchmem -benchtime=12000x ./internal/sqlparse/ | tee -a bench_obs.txt
	$(GO) test -run='^$$' -bench=BenchmarkStreamNext -benchmem -benchtime=12000x ./internal/workload/ | tee -a bench_obs.txt
	$(GO) test -run='^$$' -bench='^BenchmarkWorkloadGenerate$$' -benchmem -benchtime=20x . | tee -a bench_obs.txt
	awk 'BEGIN { print "{"; n = 0 } \
	  /^Benchmark/ { \
	    if (n++) printf ",\n"; \
	    name = $$1; sub(/-[0-9]+$$/, "", name); \
	    custom = ""; \
	    for (i = 5; i <= NF; i++) { \
	      if ($$i == "B/op") bytes = $$(i-1); \
	      else if ($$i == "allocs/op") allocs = $$(i-1); \
	      else if ($$i ~ /^[a-z_-]+\/op$$/ && $$i != "ns/op") { \
	        unit = $$i; sub(/\/op$$/, "_per_op", unit); gsub(/-/, "_", unit); \
	        custom = custom sprintf(", \"%s\": %s", unit, $$(i-1)); \
	      } \
	    } \
	    printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}", name, $$3, bytes, allocs, custom \
	  } \
	  END { print "\n}" }' bench_obs.txt > BENCH_obs.json
	rm -f bench_obs.txt
	cat BENCH_obs.json
	$(GO) test -run='^$$' -bench=BenchmarkFig7TableCurves -benchtime=1x .

# The paper's evaluation at full scale, diffed against the committed
# results/ (some 20 s for the two on a 2-core guest). A change
# that moves a figure fails here until it regenerates both files
# (by bench -exp all > results/fullscale.txt, by bench -exp extensions >
# results/extensions.txt) and says so; the -scale 10 output is pinned
# in tier-1 (cmd/by TestGoldenOutput, files under testdata/). Tier-1
# pins only that scale, so CI's bench-smoke job runs this target too:
# without it a stale results/ would pass CI.
experiments:
	$(GO) run ./cmd/by bench -q -exp all | diff -u results/fullscale.txt -
	$(GO) run ./cmd/by bench -q -exp extensions | diff -u results/extensions.txt -

# Every program under examples/ built and run to completion: `go build
# ./...` compiles them, and this is what fails when one stops working.
# Each prints its own report; only its exit status is checked.
examples:
	@for dir in examples/*/; do \
		echo "go run ./$$dir"; \
		$(GO) run "./$$dir" > /dev/null || exit 1; \
	done

# The federation benchmark (BENCHMARK.json) is its own module under
# bench/, which `go build ./...` and `go test ./...` do not enter: this
# is what fails when an internal/ API change stops it compiling.
bench-fed:
	cd bench && $(GO) vet . && $(GO) test .
