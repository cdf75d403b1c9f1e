#!/bin/sh
# CI entry point. A list: every determinism and gate check on the
# BENCH_*.json reports and the scenarios lives in `go test` (tier-1), so
# this file only adds what is too slow or too separate for tier-1.
set -eu

echo "== lint (gofmt + vet + encapsulation greps)"
make lint

echo "== go build"
go build ./...

echo "== go test -race"
# One tier: the full suite is ~10 s plain and ~90 s under the race detector
# (internal/experiments' paper sweeps are ~67 s of that, re-measured after
# PR 23's kernels); the per-package budget is several times the slowest
# package.
go test -race -timeout 8m ./...

echo "== benchmark module (nested: root go build/test do not reach it)"
make bench-smoke

echo "== fuzz smoke"
make fuzz

echo "== paper oracle (every table and figure, byte for byte)"
# EXPERIMENTS.md quotes this output. After an intended change to the model,
# regenerate with: go run ./cmd/rattrap-bench > cmd/rattrap-bench/testdata/oracle.golden
go run ./cmd/rattrap-bench | diff cmd/rattrap-bench/testdata/oracle.golden -

echo "== ok"
