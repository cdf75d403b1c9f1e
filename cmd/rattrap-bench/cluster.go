package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/realtime"
	"rattrap/internal/workload"
)

// The cluster sweep measures horizontal scaling of the sharded serving
// layer: shards × devices cells, each driving a closed loop of pipelined
// execs against one server booted with realtime.Options.Shards. The regime
// deliberately starves a single shard — MaxRuntimes 1 per shard, depth 2
// per device, speed 200 with the order-64 Linpack system — so a cell's
// req/s is bounded by paced service capacity, which is the resource
// sharding multiplies. Every device offloads a distinct app (unique AID),
// the unit the consistent-hash ring places, so load spreads across shards
// the way distinct apps would in production.
const (
	clSpeed         = tpSpeed // same calibrated regime as the throughput sweep
	clOrder         = tpOrder
	clDepth         = 2  // enough to keep a shard's single runtime busy
	clPool          = 1  // MaxRuntimes per shard: capacity == shard count
	clRequests      = 50 // measured requests per device (full sweep)
	clShortRequests = 16 // per device with -short (the CI determinism gate)
)

// clAllCells is the full {shards, devices} grid; the headline number is
// 4-shard over 1-shard req/s at the largest device count. -short keeps two
// small cells: enough to exercise multi-shard routing under CI without a
// multi-second soak.
var (
	clAllCells   = [][2]int{{1, 8}, {1, 32}, {2, 32}, {4, 8}, {4, 32}}
	clShortCells = [][2]int{{1, 8}, {4, 8}}
)

type clCell struct {
	Shards   int `json:"shards"`
	Devices  int `json:"devices"`
	Requests int `json:"requests"` // measured requests per device (excl. warm-up)
	// BusiestShardDevices is how many of the cell's AIDs (one per device)
	// the ring places on its most loaded shard; with one runtime per shard
	// that shard paces the cell, so PlacementBoundX = devices / busiest is
	// the most a cell can gain over one shard. Both are deterministic.
	BusiestShardDevices int     `json:"busiest_shard_devices"`
	PlacementBoundX     float64 `json:"placement_bound_x"`
	// Wall-clock measurements; everything above is deterministic config.
	ReqPerSec float64 `json:"req_per_sec"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
}

type clReport struct {
	Workload     string   `json:"workload"`
	Speed        float64  `json:"speed"`
	Depth        int      `json:"depth"`
	PoolPerShard int      `json:"pool_per_shard"`
	Short        bool     `json:"short"`
	Cells        []clCell `json:"cells"`
	// ClusterSpeedupX is req/s at {4 shards, 32 devices} over {1 shard,
	// 32 devices}: what four single-runtime shards buy over one under the
	// same inflow. Zero in -short runs (those cells are not swept).
	ClusterSpeedupX float64 `json:"cluster_speedup_x"`
}

// clMinSpeedup is the acceptance floor for the full sweep: 4 shards must
// at least double 1-shard throughput at 32 devices. The measured figure has
// ~50% headroom over this, so tripping it means scaling actually broke,
// not that the machine was busy.
const clMinSpeedup = 2.0

// runClusterBench sweeps the cell grid and writes BENCH_cluster.json into
// dir (or the working directory).
func runClusterBench(dir string, short bool) error {
	cells, requests := clAllCells, clRequests
	if short {
		cells, requests = clShortCells, clShortRequests
	}
	rep := clReport{
		Workload:     fmt.Sprintf("%s (n=%d, unique AID per device)", workload.NameLinpack, clOrder),
		Speed:        clSpeed,
		Depth:        clDepth,
		PoolPerShard: clPool,
		Short:        short,
	}
	byKey := make(map[[2]int]clCell, len(cells))
	for _, c := range cells {
		cell, err := measureClusterCell(c[0], c[1], requests)
		if err != nil {
			return fmt.Errorf("cell %d shards x %d devices: %w", c[0], c[1], err)
		}
		rep.Cells = append(rep.Cells, cell)
		byKey[c] = cell
		fmt.Printf("cluster %d shard(s) x %d devices: %.0f req/s (p50 %.0f µs, p99 %.0f µs; busiest shard %d devices, placement bound %.2fx)\n",
			cell.Shards, cell.Devices, cell.ReqPerSec, cell.P50Micros, cell.P99Micros, cell.BusiestShardDevices, cell.PlacementBoundX)
	}
	if one, ok := byKey[[2]int{1, 32}]; ok && one.ReqPerSec > 0 {
		if four, ok := byKey[[2]int{4, 32}]; ok {
			rep.ClusterSpeedupX = four.ReqPerSec / one.ReqPerSec
			fmt.Printf("cluster speedup (4 shards vs 1 at 32 devices): %.1fx\n", rep.ClusterSpeedupX)
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	path := "BENCH_cluster.json"
	if dir != "" {
		path = dir + string(os.PathSeparator) + path
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("report in %s\n", path)
	if !short && rep.ClusterSpeedupX < clMinSpeedup {
		return fmt.Errorf("cluster speedup %.2fx below the %.1fx floor", rep.ClusterSpeedupX, clMinSpeedup)
	}
	return nil
}

// measureClusterCell boots one sharded server (MaxRuntimes 1 per shard)
// and drives it with `devices` connections. Each device offloads its own
// app — AID "<linpack>#dN" — so the ring distributes devices across
// shards; the per-device warm-up exec boots that shard's runtime and
// stages the device's code before the timed window. p50/p99 come from the
// server-wide latency histogram, which spans all shards.
func measureClusterCell(shards, devices, requests int) (clCell, error) {
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.MaxRuntimes = clPool
	cfg.IdleTimeout = 0 // keep every shard's runtime warm for the window
	srv := realtime.NewServerOpts(cfg, clSpeed, nil, realtime.Options{
		PipelineDepth: clDepth,
		Shards:        shards,
	})
	defer srv.Close()

	app, _ := workload.ByName(workload.NameLinpack)
	baseAID := offload.AID(app.Name(), app.CodeSize())
	params := workload.EncodeLinpackParams(7, clOrder)
	deviceAID := func(i int) string { return fmt.Sprintf("%s#d%d", baseAID, i) }

	// Placement is read before the server takes traffic (afterwards the
	// cluster belongs to the driver).
	perShard := make([]int, shards)
	busiest := 0
	for i := 0; i < devices; i++ {
		o := srv.Cluster().Owner(deviceAID(i))
		perShard[o]++
		if perShard[o] > busiest {
			busiest = perShard[o]
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return clCell{}, err
	}
	defer ln.Close()
	go srv.Serve(ln)

	var ready, done sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, devices)
	ready.Add(devices)
	done.Add(devices)
	for i := 0; i < devices; i++ {
		go func(i int) {
			defer done.Done()
			errs[i] = driveThroughputDevice(ln.Addr().String(), fmt.Sprintf("cl-dev-%d", i),
				app, deviceAID(i), params, clDepth, requests, &ready, start)
		}(i)
	}
	ready.Wait() // every device connected, warmed up and parked at the gate

	wallStart := time.Now()
	close(start)
	done.Wait()
	wall := time.Since(wallStart)

	for i, err := range errs {
		if err != nil {
			return clCell{}, fmt.Errorf("device %d: %w", i, err)
		}
	}

	total := devices * requests
	p50, _, p99 := srv.Latency().Percentiles()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return clCell{
		Shards:              shards,
		Devices:             devices,
		Requests:            requests,
		BusiestShardDevices: busiest,
		PlacementBoundX:     float64(devices) / float64(busiest),
		ReqPerSec:           float64(total) / wall.Seconds(),
		P50Micros:           us(p50),
		P99Micros:           us(p99),
	}, nil
}
