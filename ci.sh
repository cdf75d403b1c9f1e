#!/bin/sh
# CI entry point: formatting, vet, build, tests (with the race detector),
# and the serving-layer micro-benchmarks, archived to bench.out.
set -eu

echo "== lint (gofmt + vet + lifecycle encapsulation)"
make lint

echo "== go build"
go build ./...

echo "== go test -race"
# One tier: the full suite is ~12 s plain and ~135 s under the race detector
# (internal/experiments' paper sweeps are ~120 s of that); the per-package
# budget is about three times the slowest package.
go test -race -timeout 8m ./...

echo "== benchmark module (nested: root go build/test do not reach it)"
make bench-smoke

echo "== fuzz smoke"
go test -run '^$' -fuzz FuzzFrameCodec -fuzztime 10s ./internal/offload/
go test -run '^$' -fuzz FuzzChunker -fuzztime 10s ./internal/offload/
go test -run '^$' -fuzz FuzzScenarioDecode -fuzztime 10s ./internal/scenario/
go test -run '^$' -fuzz FuzzAhoCorasick -fuzztime 10s ./internal/workload/

echo "== benchmarks"
make bench

# Artifacts below go to a scratch dir so the checked-in BENCH_*.json
# baselines stay untouched; the gates compare against the committed files.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== stage breakdown (determinism + reconcile gate)"
go run ./cmd/rattrap-bench -stages -out "$scratch"

echo "== boot gate (template-clone speedup + warehouse delta, double-run determinism)"
go run ./cmd/rattrap-bench -boot -out "$scratch"
mkdir -p "$scratch/boot2"
go run ./cmd/rattrap-bench -boot -out "$scratch/boot2" > /dev/null
# The boot report is entirely virtual-time: the whole file must match.
diff "$scratch/BENCH_boot.json" "$scratch/boot2/BENCH_boot.json"

echo "== throughput gate (pipelined data plane: p50, req/s and allocs/op vs checked-in baseline)"
go run ./cmd/rattrap-bench -throughput -short -out "$scratch" -baseline BENCH_throughput.json

echo "== throughput report determinism (everything but wall-clock fields)"
mkdir -p "$scratch/tp2"
go run ./cmd/rattrap-bench -throughput -short -out "$scratch/tp2" > /dev/null
strip_measured() {
    grep -v -E '"(req_per_sec|p50_us|p99_us|allocs_per_op|pipeline_speedup_x)":' "$1"
}
strip_measured "$scratch/BENCH_throughput.json" > "$scratch/tp_a.json"
strip_measured "$scratch/tp2/BENCH_throughput.json" > "$scratch/tp_b.json"
diff "$scratch/tp_a.json" "$scratch/tp_b.json"

echo "== cluster sweep (sharded gateway, short cells, double-run determinism)"
go run ./cmd/rattrap-bench -cluster -short -out "$scratch"
mkdir -p "$scratch/cl2"
go run ./cmd/rattrap-bench -cluster -short -out "$scratch/cl2" > /dev/null
strip_cluster_measured() {
    grep -v -E '"(req_per_sec|p50_us|p99_us|cluster_speedup_x)":' "$1"
}
strip_cluster_measured "$scratch/BENCH_cluster.json" > "$scratch/cl_a.json"
strip_cluster_measured "$scratch/cl2/BENCH_cluster.json" > "$scratch/cl_b.json"
diff "$scratch/cl_a.json" "$scratch/cl_b.json"

echo "== autoscale sweep (elastic pool gates, short cells, double-run determinism)"
go run ./cmd/rattrap-bench -autoscale -short -out "$scratch"
mkdir -p "$scratch/as2"
go run ./cmd/rattrap-bench -autoscale -short -out "$scratch/as2" > /dev/null
# The autoscale report is entirely virtual-time, so the whole file must be
# bit-identical across runs — no wall-clock fields to strip.
diff "$scratch/BENCH_autoscale.json" "$scratch/as2/BENCH_autoscale.json"

echo "== reshard gate (kill-one-add-one membership sweep, double-run determinism)"
go run ./cmd/rattrap-bench -reshard -short -out "$scratch"
mkdir -p "$scratch/rs2"
go run ./cmd/rattrap-bench -reshard -short -out "$scratch/rs2" > /dev/null
# The reshard report is entirely virtual-time: the whole file must match.
diff "$scratch/BENCH_reshard.json" "$scratch/rs2/BENCH_reshard.json"

echo "== scenario validate (every checked-in scenario must decode)"
go run ./cmd/rattrap-bench -scenario-validate scenarios

echo "== scenario gates (fastest checked-in scenarios, hard assertions)"
go run ./cmd/rattrap-bench -scenario scenarios/overload-shed.yaml -out "$scratch"
go run ./cmd/rattrap-bench -scenario scenarios/boot-storm.yaml -out "$scratch"
go run ./cmd/rattrap-bench -scenario scenarios/exec-flaky.yaml -out "$scratch"
go run ./cmd/rattrap-bench -scenario scenarios/warm-fleet.yaml -out "$scratch"
go run ./cmd/rattrap-bench -scenario scenarios/reshard-live.yaml -out "$scratch"

echo "== scenario determinism (double run, byte-identical report)"
go run ./cmd/rattrap-bench -scenario scenarios/baseline.yaml -out "$scratch" > /dev/null
mkdir -p "$scratch/sc2"
go run ./cmd/rattrap-bench -scenario scenarios/baseline.yaml -out "$scratch/sc2" > /dev/null
# The scenario report is entirely virtual-time: the whole file must match.
diff "$scratch/BENCH_scenario.json" "$scratch/sc2/BENCH_scenario.json"

echo "== ok"
