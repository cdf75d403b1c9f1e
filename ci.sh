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

echo "== examples (each must exit 0)"
for ex in examples/*/; do
	go run "./$ex" > /dev/null
done

echo "== go test -race"
# One tier. `make race` keeps the run's output in race.log (git-ignored) and,
# on a failure, prints the failing tests' lines: a flake that does not
# reproduce is still on disk. On two Xeon cores the full suite is ~17 s
# plain and 126-128 s under the race detector (uncached test results, warm
# build cache; 161-167 s before a request's kernel ran once, in alternated
# pairs). cmd/rattrap-bench is still the critical path (50 s beside the other
# packages, 95-99 s before; internal/workload 33-34 s, internal/core
# 24-29 s, internal/experiments 16-19 s, internal/cluster 17-19 s); the
# per-package budget is several times the slowest package. `make race-top`
# attributes cmd/rattrap-bench and internal/experiments per test: the paper
# oracle (TestPaperOracle, every table, figure and claim once) takes 32 s
# alone (66-69 s before) and 38.5 s beside internal/experiments, the
# parallel-vs-sequential comparison and trace pins 7.2 + 6.0 s, the faults
# determinism run 5.7 s, the BENCH_*.json reports 5.3 s and the suite gate
# regressions 3.2 s.
make race

echo "== benchmark module (nested: root go build/test do not reach it)"
make bench-smoke

echo "== fuzz smoke"
make fuzz

echo "== ok"
