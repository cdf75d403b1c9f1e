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
# One tier. `make race` keeps the run's output in race.log (git-ignored) and,
# on a failure, prints the failing tests' lines: a flake that does not
# reproduce is still on disk. On two Xeon cores the full suite is ~17 s
# plain and ~174 s under the race detector (uncached, after `go clean
# -testcache`, compiles included), internal/experiments' paper sweeps being
# the critical path (79 s; internal/workload 33 s, internal/core 14 s,
# internal/cluster and internal/scenario 13 s each); the per-package budget
# is several times the slowest package. `make race-top`
# attributes the experiments package per test; its ten slowest took 68 of
# its 77 s at the last attribution: the reclamation trace 22.0 s, the
# parallel-vs-sequential trace and comparison 12.1 + 8.9 s, Figure 11
# 9.1 s, the faults determinism run 5.0 s, Figure 9/Table II 3.5 s, the
# spans determinism run 2.9 s, WiFi energy ordering 2.0 s, Figure 1 1.8 s,
# the renders 1.7 s.
make race

echo "== benchmark module (nested: root go build/test do not reach it)"
make bench-smoke

echo "== fuzz smoke"
make fuzz

echo "== paper oracle (every table and figure, byte for byte)"
# EXPERIMENTS.md quotes this output. After an intended change to the model,
# regenerate with: go run ./cmd/rattrap-bench > cmd/rattrap-bench/testdata/oracle.golden
go run ./cmd/rattrap-bench | diff cmd/rattrap-bench/testdata/oracle.golden -

echo "== ok"
