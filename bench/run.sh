#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the arguments given. Everything the
# build writes (Go's build cache included) stays under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
#
# Developers can skip this script: `go run ./bench` is the same program.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOFLAGS="-buildvcs=false"
# Build output goes to stderr so the last line of stdout is the result.
go build -o "$build/bench" ./bench 1>&2
exec "$build/bench" "$@"
