GO ?= go

.PHONY: all build vet test race fuzz lint bench-kernels bench-coldboot bench-engine bench-smoke bench-scenario scenario-validate ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 8m ./...

# Static checks: formatting, vet, and the lifecycle-encapsulation rule —
# RuntimeInfo.State/Busy are written only by ContainerDB.Transition (in
# db.go); every other non-test file may only read them. Rings and
# Memberships are built only inside internal/cluster, so no layer can route
# on a private placement table frozen at epoch 0 again. The last grep keeps
# encoding/gob out: the wire and the param blobs have one flat codec each,
# and a second one would need negotiating again. internal/sim starts no
# goroutine and makes coroutines in one place, the pooled worker's
# constructor (worker.go): a go statement or a second iter.Pull there would
# be a goroutine- or coroutine-per-proc path coming back. The two go.mod
# files state the same language version, because benchmark/run.sh refuses to
# build against a root module newer than its own.
# Session.PushCode has one simulated caller, device.Client (client.go), next
# to the cluster's forwarder and the server half of the TCP exchange: another
# one would be a sixth copy of the device exchange. Fault plans have one
# runner, the scenario runner: a faults.New( anywhere else outside tests is a
# hand-written fleet harness coming back.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@bad=$$(grep -rn -E '\.(State|Busy) = ' --include='*.go' internal/ cmd/ \
		| grep -v '_test.go' | grep -v '^internal/core/db\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "lifecycle state mutated outside internal/core/db.go:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn -E '\.(bootSlot|StopRuntime)\(' --include='*.go' internal/ cmd/ \
		| grep -v '_test.go' \
		| grep -v -E '^internal/core/(core|dispatch|autoscaler|failuretracker)\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "pool capacity mutated outside the core lifecycle owners (use BootRuntime/CordonRuntime):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn -E 'NewRing(Members)?\(' --include='*.go' internal/ cmd/ \
		| grep -v '_test.go' | grep -v '^internal/cluster/' || true); \
	if [ -n "$$bad" ]; then \
		echo "placement rings constructed outside internal/cluster (route through Membership):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'cluster\.NewMembership(' --include='*.go' internal/ cmd/ \
		| grep -v '_test.go' | grep -v '^internal/cluster/' || true); \
	if [ -n "$$bad" ]; then \
		echo "a second Membership outside internal/cluster (a Cluster owns the only live one; route through it):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -n -E '^[[:space:]]*go[[:space:]]' internal/sim/*.go | grep -v '_test.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "go statement in internal/sim (procs are coroutines of pooled workers, not goroutines of their own):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(awk 'FNR==1{fn=""} /^func /{fn=$$0} /iter\.Pull\(/ && fn !~ /^func takeWorker\(/ {print FILENAME":"FNR": "$$0}' \
		$$(ls internal/sim/*.go | grep -v '_test.go')); \
	if [ -n "$$bad" ]; then \
		echo "iter.Pull( in internal/sim outside takeWorker (one pooled coroutine kind, made in one place):"; \
		echo "$$bad"; exit 1; \
	fi
	@root=$$(grep '^go ' go.mod); bench=$$(grep '^go ' benchmark/go.mod); \
	if [ "$$root" != "$$bench" ]; then \
		echo "go.mod says '$$root', benchmark/go.mod '$$bench':"; \
		echo "a root bump alone breaks benchmark/run.sh (go: updates to go.mod needed); bump both in one benchmark-archetype change"; \
		exit 1; \
	fi
	@bad=$$(grep -rn '\.PushCode(' --include='*.go' internal/ cmd/ \
		| grep -v '_test.go' | grep -v '^internal/core/' \
		| grep -v -E '^internal/(cluster/cluster|realtime/server|device/client)\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "the device exchange written out again (offload through device.Client.Attempt):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'faults\.New(' --include='*.go' internal/ cmd/ \
		| grep -v '_test.go' | grep -v '^internal/scenario/' || true); \
	if [ -n "$$bad" ]; then \
		echo "a fault plan instantiated outside the scenario runner (ask the question as a scenario or a rattrap-bench suite):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn '"encoding/gob"' --include='*.go' internal/ cmd/ || true); \
	if [ -n "$$bad" ]; then \
		echo "encoding/gob imported under internal/ or cmd/ (the flat binary codecs are the only ones):"; \
		echo "$$bad"; exit 1; \
	fi

# ns/op, B/op and allocs/op per workload kernel — Linpack twice: linpack128
# is one fixed system (a fill-cache hit), linpack-mix the orders 110-149 with
# distinct seeds that tcp-compute serves (always a miss) — plus the
# automaton build.
bench-kernels:
	$(GO) test -run '^$$' -bench BenchmarkKernels -benchmem ./internal/workload/

# ns, B and allocations per cold boot + stop of one optimized container on
# a warmed platform: the layer tcp-cold spends a third of a request in,
# measured in two seconds instead of through a 28 s run. TestColdBootAllocs
# (tier-1) fences the allocation count.
bench-coldboot:
	$(GO) test -run '^$$' -bench BenchmarkColdBoot -benchmem -cpu 1 ./internal/core/

# ns, B and allocations per proc life, parked Wait and queued Acquire: what
# the benchmark's sim.spawn_ns / sim.signal_wait_ns probes time, plus the
# resource hand-off, at one P and at two (the engine runs one proc at a time,
# so the second P only shows what a switch costs when it crosses cores).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkSpawn|BenchmarkSignalWait|BenchmarkResourceHandoff' -benchmem -benchtime 200000x -cpu 1,2 ./internal/sim/

# benchmark/ is a Go module of its own, so an exported-API change that
# breaks benchmark/adapter.go passes the root build and tests. Vet and test
# it, then run every workload for a moment (plumbing only; ~3 s).
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -smoke

# Short fuzz passes over the wire-frame codec, the content chunker, the
# scenario decoder, the virus-scan automaton and the task parameter blobs
# (any app name, any blob, through Registry.Execute); ci.sh runs this target.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameCodec -fuzztime 10s ./internal/offload/
	$(GO) test -run '^$$' -fuzz FuzzChunker -fuzztime 10s ./internal/offload/
	$(GO) test -run '^$$' -fuzz FuzzScenarioDecode -fuzztime 10s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzAhoCorasick -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz FuzzTaskParams -fuzztime 10s ./internal/workload/

# bench-stages, bench-boot, bench-autoscale, bench-reshard, bench-faults:
# regenerate BENCH_<mode>.json at the default seed and exit non-zero if one
# of the mode's gates fails. autoscale, reshard and faults are scenario
# suites (cmd/rattrap-bench/suite.go): variants of one checked-in file under
# scenarios/, so run them from the repository root. `go test
# ./cmd/rattrap-bench` regenerates the same five in memory, runs the same
# gates and byte-compares with the checked-in files, so a report that moves
# is re-pinned with this target.
bench-%:
	$(GO) run ./cmd/rattrap-bench -$*

# Validates every checked-in scenario file (syntax + schema, no run).
scenario-validate:
	$(GO) run ./cmd/rattrap-bench -scenario-validate scenarios

# Runs one scenario end to end and writes BENCH_scenario.json (pinned for
# the default by internal/scenario's TestBaselineReportGolden); override
# with SCENARIO=<file>. The million-device soak (scenarios/million-soak.yaml)
# takes 9.9 s wall at GOMAXPROCS=1 and 9.7 s at 2 for an hour of virtual time
# (11.7-12.0 s and 16.5-16.7 s before PR 21's coroutine procs) and is run on
# demand, not in CI.
SCENARIO ?= scenarios/baseline.yaml
bench-scenario:
	$(GO) run ./cmd/rattrap-bench -scenario $(SCENARIO)

ci:
	./ci.sh
