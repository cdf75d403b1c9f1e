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
# One tier. On two Xeon cores the full suite is ~18 s plain and ~130 s
# under the race detector, internal/experiments' paper sweeps being the
# critical path (77 s alone, 97 s beside the other packages); the
# per-package budget is several times the slowest package. `make race-top`
# attributes the experiments package per test; its ten slowest take 68 of
# its 77 s: the reclamation trace 22.0 s, the parallel-vs-sequential trace
# and comparison 12.1 + 8.9 s, Figure 11 9.1 s, the faults determinism run
# 5.0 s, Figure 9/Table II 3.5 s, the spans determinism run 2.9 s, WiFi
# energy ordering 2.0 s, Figure 1 1.8 s, the renders 1.7 s. The one-shard
# cluster pins that were 8.4 s of it (90 s alone, measured back to back)
# now run in internal/cluster.
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
