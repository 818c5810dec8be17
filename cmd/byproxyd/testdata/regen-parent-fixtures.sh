#!/usr/bin/env bash
# Regenerates parent-1-section/ and parent-2-sections/, the state
# directories TestParentStateAcrossUpgrade restores, with the byproxyd
# and bydbd of an older build:
#
#   cmd/byproxyd/testdata/regen-parent-fixtures.sh <commit>
#
# The commit must be a build that still splits the decision plane
# (-decision-shards) and serves the JSON stats message; d2c30fe, the
# last one before the one-plane mediator, wrote the committed fixtures.
# The commit is extracted with `git archive` into a temporary directory
# and built there with the local Go toolchain, so nothing is written
# into this checkout's .git and nothing is downloaded. The daemons run
# under the crash helper's options (TestCrashHelperProcess) against one
# bydbd per EDR site, and a small client built from the same tree sends
# nine statements in turn, reading the accounting after each one:
# crashWorkload's three, wide ones over frame, mask and chunk, and
# crashWorkload's three again. The six tables come to 573 MB, past the
# 528 MB cache, so GDS evicts in both halves of parent-1-section's run
# (2 evictions before the SIGTERM, 3 in the 12 queries the upgraded
# daemon replays from the WAL). In this order this build's GDS decides
# the replay as that build's did; a plain cycle of the six statements
# does not (diverged=2), because that build inserted a loaded object at
# the inflation value L before its evictions and this one inserts it at
# the L they raise. That build's accounting did not count evictions, so
# the client takes Evictions from its core.evictions counter.
#
#   parent-1-section:  -decision-shards 1, twelve queries, SIGTERM, a
#                      restart, twelve more, SIGKILL; acct.json is the
#                      last accounting acknowledged before the kill.
#   parent-2-sections: -decision-shards 2, twenty-four queries, SIGTERM.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 <commit>" >&2
	exit 2
fi
commit=$1
out=$(cd "$(dirname "$0")" && pwd)
repo=$(git -C "$out" rev-parse --show-toplevel)
tmp=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill -9 "$p" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

mkdir "$tmp/src"
git -C "$repo" archive "$commit" | tar -x -C "$tmp/src"
mkdir "$tmp/src/cmd/regen-client"
cat >"$tmp/src/cmd/regen-client/main.go" <<'EOF'
// Command regen-client sends n of the crash workload's statements to a
// proxy, reading its stats after each, and prints the last accounting.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"bypassyield/internal/core"
	"bypassyield/internal/wire"
)

func main() {
	n, err := strconv.Atoi(os.Args[2])
	if err != nil {
		fail(err)
	}
	c, err := wire.Dial(os.Args[1])
	if err != nil {
		fail(err)
	}
	defer c.Close()
	stmts := []string{
		"select ra, dec from photoobj where ra < 120",
		"select z, zConf from specobj where z < 0.4",
		"select p.objID, s.z from SpecObj s, PhotoObj p where p.ObjID = s.ObjID and s.z < 0.2",
		"select * from frame where ra < 180",
		"select * from mask where dec > 0",
		"select * from chunk where ramin < 180",
		"select ra, dec from photoobj where ra < 120",
		"select z, zConf from specobj where z < 0.4",
		"select p.objID, s.z from SpecObj s, PhotoObj p where p.ObjID = s.ObjID and s.z < 0.2",
	}
	var acct core.Accounting
	for i := 0; i < n; i++ {
		if _, err := c.Query(stmts[i%len(stmts)]); err != nil {
			fail(err)
		}
		st, err := c.Stats()
		if err != nil {
			fail(err)
		}
		m, err := c.Metrics()
		if err != nil {
			fail(err)
		}
		acct = st.Acct
		acct.Evictions = m.Snapshot.CounterValue("core.evictions", "gds")
	}
	b, err := json.MarshalIndent(acct, "", "  ")
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "regen-client:", err)
	os.Exit(1)
}
EOF
(cd "$tmp/src" && GOTOOLCHAIN=local GOWORK=off GOFLAGS= go build -o "$tmp/bin/" ./cmd/byproxyd ./cmd/bydbd ./cmd/regen-client)

# bound LOG PATTERN waits for a daemon's startup line in LOG and prints
# the address that follows PATTERN in it.
bound() {
	for _ in $(seq 300); do
		if addr=$(grep -o "$2[0-9][0-9.:]*" "$1" 2>/dev/null | head -1) && [ -n "$addr" ]; then
			echo "${addr#"$2"}"
			return
		fi
		sleep 0.1
	done
	echo "no startup line in $1:" >&2
	cat "$1" >&2
	exit 1
}

nodes=
for site in photo.sdss.org spec.sdss.org meta.sdss.org; do
	"$tmp/bin/bydbd" -release edr -site "$site" -addr 127.0.0.1:0 -sample 100000 -seed 1 2>"$tmp/$site.log" &
	pids+=($!)
	nodes+="${nodes:+,}$site=$(bound "$tmp/$site.log" " on ")"
done

proxy_pid=
# start_proxy STATE SHARDS launches the proxy and sets proxy_pid and
# proxy_addr.
start_proxy() {
	local log
	log=$(mktemp -p "$tmp")
	"$tmp/bin/byproxyd" -release edr -addr 127.0.0.1:0 -policy gds -granularity tables \
		-cache-pct 0.8 -nodes "$nodes" -sample 100000 -seed 1 -ledger 0 -shadow=false \
		-state-dir "$1" -wal-sync -snapshot-interval 1h -decision-shards "$2" 2>"$log" &
	proxy_pid=$!
	pids+=("$proxy_pid")
	proxy_addr=$(bound "$log" " on ")
}

# stop_proxy SIGNAL stops the proxy and waits for it.
stop_proxy() {
	kill "-$1" "$proxy_pid"
	{ wait "$proxy_pid"; } 2>/dev/null || [ "$1" = KILL ]
}

# save STATE NAME replaces the fixture NAME with STATE's snapshots and
# logs.
save() {
	rm -f "$out/$2"/snap-* "$out/$2"/wal-*
	mkdir -p "$out/$2"
	cp "$1"/snap-* "$1"/wal-* "$out/$2/"
}

state=$tmp/state-1
start_proxy "$state" 1
"$tmp/bin/regen-client" "$proxy_addr" 12 >/dev/null
stop_proxy TERM
start_proxy "$state" 1
"$tmp/bin/regen-client" "$proxy_addr" 12 >"$tmp/acct.json"
stop_proxy KILL
save "$state" parent-1-section
cp "$tmp/acct.json" "$out/parent-1-section/acct.json"

state=$tmp/state-2
start_proxy "$state" 2
"$tmp/bin/regen-client" "$proxy_addr" 24 >/dev/null
stop_proxy TERM
save "$state" parent-2-sections
