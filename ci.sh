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
# reproduce is still on disk. On two Xeon cores the full suite is ~15 s
# plain and 83-93 s under the race detector (uncached test results, warm
# build cache; 91 s in the last timed run). internal/workload is the
# critical path (31-35 s beside the other packages: its kernel sweeps run at
# full size, ROADMAP item 5), then internal/core and internal/experiments
# (16-20 s each) and internal/scenario (8-12 s). cmd/rattrap-bench is 8-11 s
# since the paper oracle runs each distinct task's kernel once (38-42 s
# before). The per-package budget is several times the slowest package.
# `make race-top` attributes cmd/rattrap-bench and internal/experiments per
# test.
make race

echo "== go test -race -count=50 over internal/realtime and internal/cluster"
# Their tests run real goroutines against each other, so a schedule-dependent
# failure shows there once in tens of runs, not in one `make race`.
# 6 min 20 s on two Xeon cores (the two packages side by side: 364 s and
# 379 s), warm build cache.
make stress

echo "== cluster property over 5000 seeded scenario files (tier-1 draws 300)"
# ~17 s on two Xeon cores. A failure prints the seed's file shrunk to its
# failing core; fix the bug and check the file in under scenarios/regress/.
go test ./internal/scenario -run '^TestPropertyReplicasAndChunkBooks$' -count 1 -seeds 5000

echo "== benchmark module (nested: root go build/test do not reach it)"
make bench-smoke

echo "== fuzz smoke"
make fuzz

echo "== ok"
