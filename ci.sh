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
# One tier: the full suite is ~11 s plain and ~91 s under the race detector
# (internal/experiments' paper sweeps are 66 s of that alone, 71 s beside
# the other packages); the per-package budget is several times the slowest
# package. `make race-top` attributes the experiments package per test; on
# two Xeon cores its ten slowest take 60 of its 73 s: the reclamation trace
# 16.5 s, the parallel-vs-sequential trace and comparison 9.4 + 7.9 s,
# Figure 11 7.3 s, the two one-shard-cluster pins (ROADMAP item 7 deletes
# them) 5.6 + 2.1 s, the faults determinism run 4.4 s, Figure 9/Table II
# 2.6 s, the spans determinism run 2.3 s, WiFi energy ordering 1.7 s.
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
