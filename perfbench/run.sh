#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload mining --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, the binary, the archives it creates and the trace files) stays
# under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
