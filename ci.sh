#!/bin/sh
# CI entry point. A list: every determinism and gate check on the
# BENCH_*.json reports, the scenarios and the paper oracle lives in `go
# test` (tier-1), so this file only adds what is too slow or too separate
# for tier-1.
set -eu

echo "== lint (gofmt + vet + encapsulation greps)"
make lint

echo "== go build"
go build ./...

echo "== go test -race"
# One tier. `make race` keeps the run's output in race.log (git-ignored) and,
# on a failure, prints the failing tests' lines: a flake that does not
# reproduce is still on disk. On two Xeon cores the full suite is ~17 s
# plain and 138-164 s under the race detector (uncached, compiles
# included; the machine's load moves it). cmd/rattrap-bench is the
# critical path (50-83 s beside the other packages; internal/workload
# 25-28 s, internal/experiments 22-27 s, internal/core 18-24 s,
# internal/cluster 12-20 s); the per-package budget is several times the
# slowest package. `make race-top` attributes cmd/rattrap-bench and
# internal/experiments per test: at the last attribution the paper oracle
# (TestPaperOracle, every table, figure and claim once) took 66.2 s, the
# parallel-vs-sequential trace and comparison pins 11.4 + 8.7 s, the
# BENCH_*.json reports 4.2 s, the faults determinism run 3.7 s, the suite
# gate regressions 3.0 s, the WiFi energy ordering 2.4 s, the Figure 1-3
# renders 1.9 s and the spans determinism run 1.7 s.
make race

echo "== benchmark module (nested: root go build/test do not reach it)"
make bench-smoke

echo "== fuzz smoke"
make fuzz

echo "== ok"
