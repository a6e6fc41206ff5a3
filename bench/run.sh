#!/usr/bin/env bash
# Entry point of the benchmark: builds the harness inside the checkout
# (Go's caches included, so nothing is written outside it) and runs it.
# Arguments are passed through, e.g.
#   bash bench/run.sh --workload edit.hot --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" --root "$root" "$@"
