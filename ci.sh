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
# plain and 101-118 s under the race detector (uncached test results, warm
# build cache, four alternated pairs; 123-147 s before image paths were built
# once per process and a layer kept its size). cmd/rattrap-bench is still the
# critical path (38-42 s beside the other packages, 50-58 s before;
# internal/workload 30-37 s, internal/core 19-25 s, internal/cluster 14-16 s,
# internal/experiments 11-14 s); the per-package budget is several times the
# slowest package. `make race-top` attributes cmd/rattrap-bench and
# internal/experiments per test: the paper oracle (TestPaperOracle, every
# table, figure and claim once) takes 25-26 s beside internal/experiments
# (33-34 s before), the faults determinism run 5.2 s, the trace and
# parallel-vs-sequential pins 4.6 + 4.3 s, the BENCH_*.json reports 4.3 s and
# the suite gate regressions 2.8 s.
make race

echo "== cluster property over 5000 seeded scenario files (tier-1 draws 300)"
# ~17 s on two Xeon cores. A failure prints the seed's file shrunk to its
# failing core; fix the bug and check the file in under scenarios/regress/.
go test ./internal/scenario -run '^TestPropertyReplicasAndChunkBooks$' -count 1 -seeds 5000

echo "== benchmark module (nested: root go build/test do not reach it)"
make bench-smoke

echo "== fuzz smoke"
make fuzz

echo "== ok"
