package main

// The names in this file are the benchmark's public vocabulary: every later
// performance claim in the repo is "<metric> on <workload>". BENCHMARK.json
// at the repo root repeats them for the driver; TestSpecMatchesBenchmarkJSON
// fails when the two drift apart.

// One run's shape. The machine the baseline was taken on is a two-core
// virtual machine whose host gives it anything from its full speed to two
// thirds of it, for milliseconds or for minutes at a time (README, "Bounds
// and the noise behind them"). A run is shaped so that what it reports does
// not depend on which: one P and one connection, so nothing waits on a
// cross-core wake-up; every timing divided by the slowdown of a yardstick
// sampled beside it (yardstick.go); and the median of many windows.
const (
	// runSeconds is the measuring time of one run (BENCHMARK.json
	// run_seconds). A run is split into segments: each sets the workload up
	// afresh (one setup_s sample) and then measures its share of the windows
	// (tcp-*) or one repeat of the scenario (sim-*), so that set-up samples
	// are spread over the run like everything else.
	runSeconds    = 28
	tcpSegments   = 14
	simMinRepeats = 3
	defaultSeed   = 42
	// procs is GOMAXPROCS of every run. With two Ps on two virtual cores a
	// closed loop spends its time in futex wake-ups whose cost is the host's
	// to decide; the simulator, which runs one proc at a time, is 1.5x
	// faster on one P than on two.
	procs = 1
	// connections is the number of closed-loop device connections: one per
	// P, never more generator goroutines than that.
	connections = 1
)

// Declared workloads are the ones BENCHMARK.json lists, so the driver runs
// them; its time limit fits four runs of runSeconds, not six. The other two
// run in the suite and in the tests like the rest.
type workloadSpec struct {
	Name     string
	Why      string
	Declared bool
}

var workloads = []workloadSpec{
	{"tcp-warm-serial", "depth 1, one Linpack order-8 request, warehouse hit: per-request software overhead is nearly all the work, so codec, driver and warm-dispatch changes must show here", true},
	{"tcp-warm-pipelined", "the same request at depth 8: pipelined decode loop, admission semaphore and coalesced writer; a serial latency win that costs batching shows here", false},
	{"tcp-compute", "depth 4 over OCR, chess, virus scan and Linpack 110-149: real computation dominates, so wire and engine changes predict no change and only workload kernels move it", true},
	{"tcp-cold", "depth 1, idle timeout 1ns and a never-seen AID per request: every request boots, pushes code, executes and reaps, the write side of warehouse, dispatcher and lifecycle", true},
	{"sim-soak", "100000 simulated devices over 6 virtual minutes on 4 shards, all warm: the simulator's generator, routing, warm dispatch, event heap and proc switches at fleet scale", false},
	{"sim-churn", "50000 devices on 3 replicated autoscaled shards with spike, shard failure, joins, removal and a fault plan: cold boots, code pushes, repair, migration and retries", true},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd is reported by every workload with -trace 0. On sim-* workloads
// the wall latency is the simulator's wall cost per simulated request, the
// only wall latency a simulator has; the virtual response times live in the
// per-layer list as scenario.virt_*. Every time and rate here is a yardstick
// time: the clock's reading over the yardstick's slowdown. The bounds come
// from the noise measured on the baseline machine (README, "Bounds and the
// noise behind them").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"wall_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.15},
	{"alloc_bytes_per_req", "B", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is reported by every workload with -trace 1. A metric that does
// not apply to the workload (a registry read on a sim-* run, a report read on
// a tcp-* run) is reported as 0.
var perLayer = []metricSpec{
	// offload: binary wire codec over an in-memory pipe.
	{"offload.exec_encode_ns", "ns", "lower", 0},
	{"offload.exec_decode_ns", "ns", "lower", 0},
	{"offload.result_encode_ns", "ns", "lower", 0},
	{"offload.result_decode_ns", "ns", "lower", 0},
	{"offload.roundtrip_allocs", "count", "lower", 0},
	{"offload.frame_bytes", "B", "lower", 0},
	{"offload.offer_roundtrip_ns", "ns", "lower", 0},
	// realtime: pacing driver probes and the server's own registry.
	{"realtime.driver_do_ns", "ns", "lower", 0},
	{"realtime.driver_do_contended_ns", "ns", "lower", 0},
	{"realtime.conn_setup_us", "us", "lower", 0},
	{"realtime.server_wall_p50_us", "us", "lower", 0},
	{"realtime.server_wall_p99_us", "us", "lower", 0},
	{"realtime.requests", "count", "higher", 0},
	{"realtime.results", "count", "higher", 0},
	{"realtime.dedup_hits", "count", "lower", 0},
	{"realtime.timer_wakeups_per_req", "count", "lower", 0},
	// core: bare-engine probes and per-workload registry reads.
	{"core.warm_request_ns", "ns", "lower", 0},
	{"core.warm_request_allocs", "count", "lower", 0},
	{"core.cold_boot_wall_us", "us", "lower", 0},
	{"core.cold_boot_virtual_ms", "ms", "lower", 0},
	{"core.code_push_wall_us", "us", "lower", 0},
	{"core.stop_runtime_wall_us", "us", "lower", 0},
	{"core.boots_per_req", "count", "lower", 0},
	{"core.template_clones_per_req", "count", "higher", 0},
	{"core.warehouse_hit_ratio", "ratio", "higher", 0},
	{"core.affinity_hit_ratio", "ratio", "higher", 0},
	{"core.queued_per_req", "count", "lower", 0},
	{"core.overload_rejects", "count", "lower", 0},
	{"core.queue_wait_virtual_p50_ms", "ms", "lower", 0},
	// cluster: membership and migration probes, sim-churn report reads.
	{"cluster.route_ns", "ns", "lower", 0},
	{"cluster.warm_request_ns", "ns", "lower", 0},
	{"cluster.join_wall_ms", "ms", "lower", 0},
	{"cluster.join_delta_ratio", "ratio", "lower", 0},
	{"cluster.repair_wall_ms", "ms", "lower", 0},
	{"cluster.entries_moved", "count", "lower", 0},
	{"cluster.delta_ratio", "ratio", "lower", 0},
	{"cluster.repaired", "count", "lower", 0},
	// sim: the discrete-event engine.
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.events_per_s_deep", "1/s", "higher", 0},
	{"sim.proc_switch_ns", "ns", "lower", 0},
	{"sim.spawn_ns", "ns", "lower", 0},
	{"sim.resource_use_ns", "ns", "lower", 0},
	{"sim.signal_wait_ns", "ns", "lower", 0},
	// workload: the four applications' kernels.
	{"workload.linpack8_ns", "ns", "lower", 0},
	{"workload.linpack128_ns", "ns", "lower", 0},
	{"workload.chess_ns", "ns", "lower", 0},
	{"workload.ocr_ns", "ns", "lower", 0},
	{"workload.virusscan_ns", "ns", "lower", 0},
	{"workload.mixed_allocs_per_task", "count", "lower", 0},
	// scenario / device: the fleet generator and the simulated client.
	{"scenario.load_ms", "ms", "lower", 0},
	{"scenario.schedule_ns_per_arrival", "ns", "lower", 0},
	{"scenario.wall_us_per_arrival", "us", "lower", 0},
	{"scenario.retries", "count", "lower", 0},
	{"scenario.overloads", "count", "lower", 0},
	{"scenario.virt_p50_ms", "ms", "lower", 0},
	{"scenario.virt_p99_ms", "ms", "lower", 0},
	{"device.offload_wall_us", "us", "lower", 0},
	{"device.offload_allocs", "count", "lower", 0},
	// obs / metrics: per-request instrumentation.
	{"obs.hist_observe_ns", "ns", "lower", 0},
	{"obs.span_fold_ns", "ns", "lower", 0},
	{"metrics.latency_observe_ns", "ns", "lower", 0},
	// client: the load generator itself.
	{"client.submit_ns", "ns", "lower", 0},
	{"client.step_ns", "ns", "lower", 0},
	{"client.fail_ratio", "ratio", "lower", 0},
	// The latency tail is an end-to-end metric by nature. It is kept here,
	// by the issue's rule for one that does not repeat: a tail is a handful
	// of requests that a collector cycle or the host stretched, and no
	// yardstick follows those (README, "End-to-end metrics").
	{"client.wall_p99_us", "us", "lower", 0},
	// trace: self times from the traced window and the layer replay.
	{"trace.client.submit_self_us", "us", "lower", 0},
	{"trace.client.wait_self_us", "us", "lower", 0},
	{"trace.client.decode_self_us", "us", "lower", 0},
	{"trace.offload.exec_encode_self_us", "us", "lower", 0},
	{"trace.offload.exec_decode_self_us", "us", "lower", 0},
	{"trace.workload.execute_self_us", "us", "lower", 0},
	{"trace.realtime.driver_do_self_us", "us", "lower", 0},
	{"trace.core.prepare_self_us", "us", "lower", 0},
	{"trace.core.execute_self_us", "us", "lower", 0},
	{"trace.core.release_self_us", "us", "lower", 0},
	{"trace.offload.result_encode_self_us", "us", "lower", 0},
	{"trace.offload.result_decode_self_us", "us", "lower", 0},
	{"trace.core.boot_self_us", "us", "lower", 0},
	{"trace.core.push_code_self_us", "us", "lower", 0},
	{"trace.replay_sum_us", "us", "lower", 0},
	{"trace.replay_cold_sum_us", "us", "lower", 0},
	{"trace.unattributed_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

func findWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
