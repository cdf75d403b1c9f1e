#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash benchmark/run.sh --workload tcp-cold ...
# Everything it writes (build cache, binary, results) stays inside the
# checkout: .bench_build/ and benchmark/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/rattrap-benchmark" . >&2
exec "$build/rattrap-benchmark" "$@"
