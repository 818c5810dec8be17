#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there, passing its arguments on. Build cache and
# state directories stay inside the checkout, and nothing is left
# running: the benchmark is one process.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -buildvcs=false -o "$build/fedbench" .)
cd "$root"
exec "$build/fedbench" -scratch "$build/tmp" "$@"
