package experiments

import (
	"errors"
	"fmt"
	"time"

	"rattrap/internal/cluster"
	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/host"
	"rattrap/internal/metrics"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// The reshard experiment is the live-membership stress test: a steady
// open-loop sweep runs against a replicated cluster while one shard
// crashes mid-sweep and a fresh shard joins a few seconds later. Three
// properties are on trial, and the cmd wrapper turns each into a hard
// gate:
//
//  1. Availability — every request succeeds, counting retries. A crash
//     surfaces as ErrShardDown only until the epoch advances; the retry
//     re-routes onto the surviving replica.
//  2. Recovery — the completion rate in the post-event window comes back
//     to within 10% of the pre-event window.
//  3. Delta migration — the join transfers only chunks the new shard is
//     missing, so migrated delta bytes stay strictly under the entries'
//     full size.
//
// Requests run the device exchange in-process (a device.Client without a
// link: no modeled device network), so the measured rate isolates routing +
// queueing + execution — the costs membership changes perturb.
// Deterministic per seed.

// ReshardConfig parameterizes the sweep. Zero value is unusable; use
// DefaultReshardConfig.
type ReshardConfig struct {
	Seed int64
	// Order is the Linpack system order (per-request compute).
	Order int
	// Requests arrive uniformly over Horizon; Variants spreads them over
	// that many distinct AIDs (consistent-hash placements).
	Requests int
	Variants int
	Devices  int
	Horizon  time.Duration
	// Shards/Replicas shape the founding cluster.
	Shards   int
	Replicas int
	// FailAt crashes shard 1; AddAt joins a fresh shard.
	FailAt time.Duration
	AddAt  time.Duration
	// The pre window is [MeasureStart, FailAt); the post window is
	// [PostStart, Horizon). MeasureStart skips the cold-boot backlog drain, PostStart
	// gives the join time to finish migrating.
	MeasureStart time.Duration
	PostStart    time.Duration
	// MaxAttempts bounds per-request retries (shard-down + overload).
	MaxAttempts int
	// MaxRuntimes caps each shard's pool.
	MaxRuntimes int
}

// DefaultReshardConfig is the sweep BENCH_reshard.json is pinned at.
func DefaultReshardConfig(seed int64) ReshardConfig {
	return ReshardConfig{
		Seed:         seed,
		Order:        48,
		Requests:     600,
		Variants:     48,
		Devices:      128,
		Horizon:      24 * time.Second,
		Shards:       3,
		Replicas:     2,
		FailAt:       8 * time.Second,
		AddAt:        12 * time.Second,
		MeasureStart: 5 * time.Second,
		PostStart:    16 * time.Second,
		MaxAttempts:  6,
		MaxRuntimes:  4,
	}
}

// ReshardReport is BENCH_reshard.json. All quantities are virtual time,
// so the file is byte-identical across runs at one seed.
type ReshardReport struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`

	Requests         int `json:"requests"`
	Succeeded        int `json:"succeeded"`
	Retries          int `json:"retries"`
	ShardDownRetries int `json:"shard_down_retries"`

	FailAtS float64 `json:"fail_at_s"`
	AddAtS  float64 `json:"add_at_s"`

	// Completion rates in the pre-event and post-recovery windows, and
	// their ratio (>= 0.9 is the recovery gate).
	PreReqS       float64 `json:"pre_req_s"`
	PostReqS      float64 `json:"post_req_s"`
	RecoveryRatio float64 `json:"recovery_ratio"`

	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`

	// End-of-run membership and migration accounting.
	Epoch         uint64 `json:"epoch"`
	LiveShards    int    `json:"live_shards"`
	Joins         int    `json:"joins"`
	Failures      int    `json:"failures"`
	EntriesMoved  int    `json:"entries_moved"`
	DeltaBytes    int64  `json:"delta_bytes"`
	FullBytes     int64  `json:"full_bytes"`
	ReplicaCopies int    `json:"replica_copies"`
	Repaired      int    `json:"repaired"`
}

// RunReshard executes the kill-one-add-one sweep and reports.
func RunReshard(cfg ReshardConfig) (*ReshardReport, error) {
	if cfg.Requests <= 0 || cfg.Shards < 2 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("experiments: bad reshard config %+v", cfg)
	}
	app, err := workload.ByName(workload.NameLinpack)
	if err != nil {
		return nil, err
	}
	params := workload.EncodeLinpackParams(cfg.Seed, cfg.Order)

	e := sim.NewEngine(cfg.Seed)
	pcfg := core.DefaultConfig(core.KindRattrap)
	pcfg.MaxRuntimes = cfg.MaxRuntimes
	cl := cluster.NewReplicated(e, pcfg, cfg.Shards, cfg.Replicas)

	rep := &ReshardReport{
		Workload: fmt.Sprintf("%s (n=%d)", workload.NameLinpack, cfg.Order),
		Seed:     cfg.Seed,
		Shards:   cfg.Shards,
		Replicas: cfg.Replicas,
		Requests: cfg.Requests,
		FailAtS:  cfg.FailAt.Seconds(),
		AddAtS:   cfg.AddAt.Seconds(),
	}

	e.At(sim.Time(cfg.FailAt), func() { cl.FailShard(1) })
	e.At(sim.Time(cfg.AddAt), func() { cl.AddShard() })

	policy := offload.RetryPolicy{MaxAttempts: cfg.MaxAttempts, BaseDelay: 50 * time.Millisecond}.WithDefaults()
	var latencies []float64
	var preDone, postDone int
	gap := cfg.Horizon / time.Duration(cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		i := i
		at := time.Duration(i) * gap
		e.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			p.Sleep(at)
			start := e.Now()
			codeSize := app.CodeSize() + host.Bytes(i%cfg.Variants)
			c := device.Client{ID: fmt.Sprintf("dev-%d", i%cfg.Devices)}
			task := workload.Task{App: app.Name(), Method: "solve", Seq: i / cfg.Devices, Params: params}
			// Shard-down and overload errors back off and retry (the next
			// epoch's ring routes around the crash); anything else is permanent.
			for attempt := 1; ; attempt++ {
				_, err := c.Attempt(p, cl, task, codeSize, nil)
				if err == nil {
					break
				}
				delay, ok := policy.Backoff(attempt, err, e.Rand())
				if !ok {
					return
				}
				if errors.Is(err, cluster.ErrShardDown) {
					rep.ShardDownRetries++
				}
				rep.Retries++
				p.Sleep(delay)
			}
			rep.Succeeded++
			done := e.Now()
			latencies = append(latencies, (done - start).Duration().Seconds())
			if done >= sim.Time(cfg.MeasureStart) && done < sim.Time(cfg.FailAt) {
				preDone++
			}
			if done >= sim.Time(cfg.PostStart) && done < sim.Time(cfg.Horizon) {
				postDone++
			}
		})
	}

	e.Run()
	if live := e.LiveProcs(); live != 0 {
		return nil, fmt.Errorf("%d procs deadlocked", live)
	}

	preWin := (cfg.FailAt - cfg.MeasureStart).Seconds()
	postWin := (cfg.Horizon - cfg.PostStart).Seconds()
	if preWin > 0 {
		rep.PreReqS = float64(preDone) / preWin
	}
	if postWin > 0 {
		rep.PostReqS = float64(postDone) / postWin
	}
	if rep.PreReqS > 0 {
		rep.RecoveryRatio = rep.PostReqS / rep.PreReqS
	}
	if len(latencies) > 0 {
		sorted := append([]float64(nil), latencies...)
		rep.P50Millis = metrics.Percentile(sorted, 50) * 1e3
		rep.P99Millis = metrics.Percentile(sorted, 99) * 1e3
	}

	mem := cl.Membership()
	ms := cl.MigrationStats()
	rep.Epoch = cl.Epoch()
	rep.LiveShards = mem.LiveCount()
	rep.Joins = ms.Joins
	rep.Failures = ms.Failures
	rep.EntriesMoved = ms.EntriesMoved
	rep.DeltaBytes = int64(ms.DeltaBytes)
	rep.FullBytes = int64(ms.FullBytes)
	rep.ReplicaCopies = ms.ReplicaCopies
	rep.Repaired = ms.Repaired
	return rep, nil
}
