GO ?= go

.PHONY: all build vet test race race-top stress fuzz lint bench-kernels bench-coldboot bench-engine bench-simreq bench-smoke bench-scenario scenario-validate ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The run's output is kept in race.log (git-ignored), so a failure that
# does not reproduce is still on disk; on failure the log is printed without
# the passing packages' lines, which leaves the failing tests' output.
race:
	@status=0; $(GO) test -race -timeout 8m ./... > race.log 2>&1 || status=$$?; \
	if [ $$status -eq 0 ]; then cat race.log; else \
		echo "go test -race failed; the whole run is in race.log:"; \
		grep -v -E '^(ok|\?) ' race.log; \
	fi; \
	exit $$status

# The ten slowest tests of cmd/rattrap-bench (the paper oracle) and
# internal/experiments under the race detector, seconds first: the two are
# most of what `make race` costs, so this is where a cut to -race time
# starts (ci.sh records the last attribution).
race-top:
	$(GO) test -race -v -count 1 -timeout 8m ./cmd/rattrap-bench ./internal/experiments 2>&1 \
		| sed -n -E 's/^--- (PASS|FAIL|SKIP): ([^ ]+) \(([0-9.]+)s\)$$/\3 \2 \1/p' \
		| sort -rn | head -10

# The two packages whose tests run real goroutines against each other — the
# realtime server (connection readers, request workers, the pacing loop)
# and the cluster (live reshards, shard failure mid-flight) — fifty times
# under the race detector: a schedule-dependent failure that one `make race`
# shows once in tens of runs shows here. ci.sh runs it and records its time.
stress:
	$(GO) test -race -count=50 -timeout 40m ./internal/realtime ./internal/cluster

# Static checks: formatting, vet, and the lifecycle-encapsulation rule —
# RuntimeInfo.State/Busy are written only by ContainerDB.Transition (in
# db.go); every other non-test file may only read them. Rings and
# Memberships are built only inside internal/cluster, so no layer can route
# on a private placement table frozen at epoch 0 again. The last grep keeps
# encoding/gob out: the wire and the param blobs have one flat codec each,
# and a second one would need negotiating again. internal/sim starts no
# goroutine and makes coroutines in one place, the pooled worker's
# constructor (worker.go): a go statement or a second iter.Pull there would
# be a goroutine- or coroutine-per-proc path coming back. A runtime enters
# the pool through .bootSlot( at three sites, the request path and the one
# backlog boot (dispatch.go) and BootRuntime (core.go), and leaves through
# .StopRuntime( at two, the slot's one stop proc (dispatch.go) and StopAll
# (core.go): another site is a private reap, drain or replacement boot,
# which once stranded a fixed pool's parked requests, coming back. The workload
# kernels draw every seeded input from rngSource (rng.go); math/rand's own
# source appears once, where rng.go recovers its seeding table. The event queue is
# the typed heap in sim.go: container/heap there would box every event
# through an interface again. The two go.mod
# files state the same language version, because benchmark/run.sh refuses to
# build against a root module newer than its own.
# Session.PushCode has one simulated caller, device.Client (client.go), next
# to the cluster's forwarder and the server's connection machine: another
# one would be a sixth copy of the device exchange. Fault plans have one
# runner, the scenario runner: a faults.New( anywhere else outside tests is a
# hand-written fleet harness coming back. The realtime protocol is tested in
# virtual time (virtual_test.go): a wall-clock sleep or timeout belongs only
# in the pacing driver's tests, and in the TCP adapter's (tcp_test.go) only
# as the upper bound of a select. The App Warehouse stages code in one
# format, content-addressed blocks named by chunkPath under chunkDir: a
# "/warehouse/ path anywhere but chunkDir's declaration, a store write
# outside writeChunk or a store removal of another path is a second format
# (the plain blob, once) or a second copy of the layout coming back. internal/cluster lands a migrated or replicated entry only through
# copyEntry (import, then capacity): a hand-copied import loop is how a leave
# once skipped the capacity check. Platform.Audit owns the scheduler's and the
# warehouse's reverse indexes: a test that type-switches on .sched or reads
# .byCID is a private copy of the invariants coming back (audit_test.go
# corrupts them on purpose). A cluster hands out its shard's own session,
# behind the seam core.Platform.SetShard installs: a struct in
# internal/cluster embedding offload.Session is the per-request session
# wrapper coming back. A realtime connection runs its reader (the accept
# loop's handler) and its request workers, and each sends what it makes under
# the connection's send lock: any other go statement in server.go is a writer
# goroutine, and a hand-off per reply, coming back. The experiments read a
# request's local time from the device's estimate, whose kernel run rides the
# task to the cloud: a workload.NewRegistry( in internal/experiments is a
# reference run of every task, and a second local-time model, coming back.
# A realtime request allocates only what outlives it: Driver.Do starts the
# proc its pooled completion embeds, and a worker's reqState owns the span
# its requests record into, so a .Spawn( or an obs.NewSpan( in non-test
# internal/realtime is a per-request proc or span coming back. A
# workload.Memo runs each distinct task once for the simulation harnesses
# (internal/scenario, internal/experiments): anywhere else in non-test code
# it would let the serving path skip the kernels tcp-compute measures.
# The layer that holds a byte charges for reading it: a .DiskRead(,
# .DiskReadPage(, .DiskWrite( or .MemCopy( outside internal/host and
# internal/unionfs is a private I/O model (the App Warehouse's, once)
# coming back. Three reads charge bytes no modelled layer holds: a kernel
# module's .ko (kernel/kernel.go, a host file under no container's mount),
# an app's database streaming (android/exec.go, data the task names only by
# size) and local execution (device/device.go, the handset's own storage).
# The paper's experiments run the paper preset: core.ServingConfig( is for
# the daemon, the boot suite's template cell and scenario files only, so the
# oracle (internal/experiments, examples/) never boots from a template.
# A request's session is a value in its runtime's slot, open from Prepare to
# Release: a &session{, a new(session) or a queuedSession in non-test
# internal/core is a per-request session, and a warm request's allocation,
# coming back.
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
	@sites=$$(grep -rn -E '\.(bootSlot|StopRuntime)\(' --include='*.go' internal/ cmd/ | grep -v '_test.go'); \
	boots=$$(echo "$$sites" | grep -c -E '^internal/core/(core|dispatch)\.go:.*\.bootSlot\('); \
	stops=$$(echo "$$sites" | grep -c -E '^internal/core/(core|dispatch)\.go:.*\.StopRuntime\('); \
	if [ "$$(echo "$$sites" | wc -l)" != 5 ] || [ "$$boots" != 3 ] || [ "$$stops" != 2 ]; then \
		echo "a runtime enters the pool only through the request path, BootRuntime and backlogBoot, and leaves only through StopAll and the slot's stop proc (use BootRuntime/CordonRuntime):"; \
		echo "$$sites"; exit 1; \
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
	@bad=$$(awk 'FNR==1{fn=""} /^func /{fn=$$0} /rand\.NewSource\(/ && !/^[[:space:]]*\/\// && fn !~ /^func cookedFromMathRand\(/ {print FILENAME":"FNR": "$$0}' \
		$$(ls internal/workload/*.go | grep -v '_test.go')); \
	if [ -n "$$bad" ]; then \
		echo "rand.NewSource( in internal/workload outside cookedFromMathRand (draw from rngSource, through seededRand):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -n '"container/heap"' $$(ls internal/sim/*.go | grep -v '_test.go') || true); \
	if [ -n "$$bad" ]; then \
		echo "container/heap imported in internal/sim (the event queue is the typed eventHeap):"; \
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
		| grep -v -E '^internal/(cluster/cluster|realtime/machine|device/client)\.go:' || true); \
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
	@bad=$$(grep -rn '"/warehouse/' --include='*.go' internal/ cmd/ \
		| grep -v '_test.go' | grep -v -E '^internal/core/warehouse\.go:[0-9]+:const chunkDir = "/warehouse/chunks/"$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "a warehouse path other than chunkDir (the warehouse stages one format: chunkPath's blocks under chunkDir):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$( (awk 'FNR==1{fn=""} /^func /{fn=$$0} /\.store\.Write\(/ && fn !~ /^func \(w \*Warehouse\) writeChunk\(/ {print FILENAME":"FNR": "$$0}' \
		$$(ls internal/core/*.go | grep -v '_test.go'); \
		grep -n -E '\.store\.Remove\(' $$(ls internal/core/*.go | grep -v '_test.go') | grep -v -E '\.store\.Remove\((chunkPath\(h\)|c\.path)\)') || true); \
	if [ -n "$$bad" ]; then \
		echo "a warehouse store write outside writeChunk, or a removal of a path other than a block's (the warehouse stages one format):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(awk 'FNR==1{fn=""} /^func /{fn=$$0} /\.(ImportEntry|EnforceCapacity)\(/ && fn !~ /^func \(c \*Cluster\) copyEntry\(/ {print FILENAME":"FNR": "$$0}' \
		$$(ls internal/cluster/*.go | grep -v '_test.go')); \
	if [ -n "$$bad" ]; then \
		echo "ImportEntry( or EnforceCapacity( in internal/cluster outside copyEntry (land entries through copyEntry):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn -E '\.sched\.\(|\.byCID\b' --include='*_test.go' internal/ cmd/ \
		| grep -v '^internal/core/audit_test\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "a test reads the scheduler's or the warehouse's index (check the books through Platform.Audit):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -n -E '^[[:space:]]+\*?offload\.Session[[:space:]]*(//.*)?$$' internal/cluster/*.go || true); \
	if [ -n "$$bad" ]; then \
		echo "offload.Session embedded in internal/cluster (return the shard's session; its seam is core.Shard):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(awk '/^func /{fn=$$0} /^[[:space:]]*go[[:space:]]/ \
		&& !(fn ~ /^func \(s \*Server\) Serve\(/ && /go func\(\) \{$$/) \
		&& !(fn ~ /^func \(h \*connHandler\) admit\(/ && /go h\.worker\(\)$$/) {print FILENAME":"FNR": "$$0}' \
		internal/realtime/server.go); \
	if [ -n "$$bad" ]; then \
		echo "go statement in internal/realtime/server.go beyond the accept loop's handler and the request workers (frames leave on the goroutine that made them, under the send lock):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'workload\.NewRegistry(' --include='*.go' internal/experiments/ \
		| grep -v '_test.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "a workload registry in internal/experiments (a request's local time is its device's estimate, est.LocalTime):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn -E 'workload\.(NewMemo\(|Memo\b)' --include='*.go' internal/ cmd/ \
		| grep -v '_test.go' | grep -v -E '^internal/(scenario|experiments)/' || true); \
	if [ -n "$$bad" ]; then \
		echo "a task memo outside the simulation harnesses (the serving path runs every kernel):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn -E '\.(DiskRead|DiskReadPage|DiskWrite|MemCopy)\(' --include='*.go' internal/ cmd/ \
		| grep -v '_test.go' | grep -v -E '^internal/(host|unionfs)/' \
		| grep -v -E '^internal/kernel/kernel\.go:[0-9]+:[[:space:]]*k\.h\.DiskRead\(p, lm\.key, ' \
		| grep -v -E '^internal/android/exec\.go:[0-9]+:[[:space:]]*h\.DiskRead\(p, "", remaining, ' \
		| grep -v -E '^internal/device/device\.go:[0-9]+:[[:space:]]*d\.H\.DiskRead\(p, "", io, ' || true); \
	if [ -n "$$bad" ]; then \
		echo "an I/O charge outside internal/host and internal/unionfs (the layer that holds the bytes charges their read):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'ServingConfig(' --include='*.go' internal/ cmd/ examples/ \
		| grep -v '_test.go' | grep -v -E '^(cmd/rattrapd/|cmd/rattrap-bench/boot\.go:|internal/scenario/)' \
		| grep -v -E '^internal/core/core\.go:[0-9]+:func ServingConfig\(' || true); \
	if [ -n "$$bad" ]; then \
		echo "the serving preset outside rattrapd, the boot suite and the scenario decoder (the paper's experiments run core.DefaultConfig):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -n -E '\.Spawn\(|obs\.NewSpan\(' $$(ls internal/realtime/*.go | grep -v '_test.go') || true); \
	if [ -n "$$bad" ]; then \
		echo "a per-request proc or span in internal/realtime coming back (start the completion's own proc; record into the worker's reqState span):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -n -E '&session\{|new\(session\)|queuedSession' $$(ls internal/core/*.go | grep -v '_test.go') || true); \
	if [ -n "$$bad" ]; then \
		echo "a per-request session in internal/core (a request's session is its slot's, sl.sess):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -n -E 'time\.(Sleep|After)\(' internal/realtime/*_test.go \
		| grep -v -E '^internal/realtime/driver_test\.go:' \
		| grep -v -E '^internal/realtime/tcp_test\.go:[0-9]+:[[:space:]]*case <-time\.After\(' || true); \
	if [ -n "$$bad" ]; then \
		echo "wall-clock wait in a realtime test (protocol tests run on the virtual transport; the TCP adapter's use the wall clock only as a select's upper bound):"; \
		echo "$$bad"; exit 1; \
	fi

# ns/op, B/op and allocs/op per workload kernel — Linpack twice: linpack128
# is one fixed system (a fill-cache hit), linpack-mix the orders 110-149 with
# distinct seeds that tcp-compute serves (always a miss) — plus the
# automaton build; then Linpack's factorization alone at seven orders,
# unblocked against the panel LU that lpSolve runs; then a reseed and the
# two input fills (Linpack n = 130, a 160 KB virus target), each on
# math/rand's source and on rngSource.
bench-kernels:
	$(GO) test -run '^$$' -bench BenchmarkKernels -benchmem ./internal/workload/
	$(GO) test -run '^$$' -bench BenchmarkLpSolve -cpu 1 -count 3 ./internal/workload/
	$(GO) test -run '^$$' -bench 'BenchmarkSeed|BenchmarkInputFill' -cpu 1 -count 3 ./internal/workload/

# ns, B and allocations per cold boot + stop of one optimized container on
# a warmed platform: the layer tcp-cold spends a third of a request in,
# measured in two seconds instead of through a 28 s run. TestColdBootAllocs
# (tier-1) fences the allocation count. On the Xeon this repository is
# measured on, at one P: 15.9 us, 5985 B, 71 allocs before Binder nodes,
# module records and device handles stopped being allocated one by one;
# 13.4 us, 4416 B, 35 allocs after (median of six). 32 allocs and 4496 B
# once the post-boot scan runs on a proc its runtime owns (time unchanged:
# 20.7 us on both sides, medians of six alternated runs on a busier
# two-core Xeon host). 17 allocs and 3808 B once a boot allocates one
# object per part of a runtime (medians of six: 21.6 -> 17.2 us on the
# busier host). 13 allocs and 3120 B once a container's namespace holds
# only Binder's driver state (18.6 -> 17.9 us, inside the runs' spread).
# The target prints the six runs such a median is of.
bench-coldboot:
	$(GO) test -run '^$$' -bench BenchmarkColdBoot -benchmem -cpu 1 -count 6 ./internal/core/

# ns, B and allocations per proc life, parked Wait and queued Acquire: what
# the benchmark's sim.spawn_ns / sim.signal_wait_ns probes time, plus the
# resource hand-off, at one P and at two (the engine runs one proc at a time,
# so the second P only shows what a switch costs when it crosses cores).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkSpawn|BenchmarkSignalWait|BenchmarkResourceHandoff' -benchmem -benchtime 200000x -cpu 1,2 ./internal/sim/

# ns, heap bytes and heap objects per simulated arrival: the whole sim-churn
# workload (benchmark/scenarios/sim-churn.yaml) run in-process, three times
# at one P (~3 s). TestSimArrivalAllocs (tier-1) fences the allocation count
# and bytes on the same file shrunk five times.
bench-simreq:
	$(GO) test -run '^$$' -bench BenchmarkSimRequest -benchtime 3x -cpu 1 ./internal/scenario/

# benchmark/ is a Go module of its own, so an exported-API change that
# breaks benchmark/adapter.go passes the root build and tests. Vet and test
# it, then run every workload for a moment (plumbing only; ~3 s).
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -smoke

# Short fuzz passes over the wire-frame codec, the content chunker, the
# scenario decoder, the virus-scan automaton, the task parameter blobs (any
# app name, any blob, through Registry.Execute) and Linpack's blocked
# factorization against the textbook loop, and the kernels' random source
# against math/rand's at any seed; ci.sh runs this target.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameCodec -fuzztime 10s ./internal/offload/
	$(GO) test -run '^$$' -fuzz FuzzChunker -fuzztime 10s ./internal/offload/
	$(GO) test -run '^$$' -fuzz FuzzScenarioDecode -fuzztime 10s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzAhoCorasick -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz FuzzTaskParams -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz FuzzLpSolve -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz FuzzSourceSeed -fuzztime 10s ./internal/workload/

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

# Validates every checked-in scenario file, the regress files and the
# benchmark's included (syntax + schema, no run).
scenario-validate:
	$(GO) run ./cmd/rattrap-bench -scenario-validate scenarios
	$(GO) run ./cmd/rattrap-bench -scenario-validate scenarios/regress
	$(GO) run ./cmd/rattrap-bench -scenario-validate benchmark/scenarios

# Runs one scenario end to end and writes BENCH_scenario.json (pinned for
# the default by internal/scenario's TestBaselineReportGolden); override
# with SCENARIO=<file>. The million-device soak (scenarios/million-soak.yaml)
# takes 9.9 s wall at GOMAXPROCS=1 and 9.7 s at 2 for an hour of virtual time
# (11.7-12.0 s and 16.5-16.7 s before PR 21's coroutine procs) and is run on
# demand, not in CI.
SCENARIO ?= scenarios/baseline.yaml
bench-scenario:
	$(GO) run ./cmd/rattrap-bench -scenario $(SCENARIO) -out .

ci:
	./ci.sh
