package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/realtime"
	"rattrap/internal/workload"
)

// The throughput sweep drives the pipelined data plane closed-loop: N
// device connections each keep `depth` exec requests in flight over
// loopback TCP, and the cell's figure of merit is sustained requests/sec
// rather than single-request latency. Depth 1 is the serial baseline the
// pipeline is judged against.
//
// The sweep runs at 200x with an order-64 system so a request's paced
// virtual cost — the part overlapping requests share — is a few hundred µs
// of wall time. That is the window pipelining overlaps; at much higher
// speeds it rounds to zero and every depth measures the same serialized
// dispatch path (benchmark/'s tcp-warm-serial measures that one).
const (
	tpSpeed         = 200
	tpOrder         = 64  // Linpack system order: ~0.15 s virtual, ~80k real flops
	tpRequests      = 400 // measured requests per device (full sweep)
	tpShortRequests = 160 // per device with -short (the CI gate); enough to amortize boot + handshake against the full-sweep baseline
)

// tpAllCells is the full devices × depth grid; -short keeps only the
// single-connection cells so the CI gate stays fast. Cell identity is
// {devices, depth}: the baseline check matches on it, so reordering or
// renaming cells invalidates checked-in baselines.
var (
	tpAllCells   = [][2]int{{1, 1}, {1, 8}, {4, 1}, {4, 8}}
	tpShortCells = [][2]int{{1, 1}, {1, 8}}
)

type tpCell struct {
	Devices  int `json:"devices"`
	Depth    int `json:"depth"`
	Requests int `json:"requests"` // measured requests per device (excl. warm-up)
	// Wall-clock measurements; everything above is deterministic config.
	ReqPerSec   float64 `json:"req_per_sec"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type tpReport struct {
	Workload string   `json:"workload"`
	Speed    float64  `json:"speed"`
	Short    bool     `json:"short"`
	Cells    []tpCell `json:"cells"`
	// PipelineSpeedupX is req/s at {1 device, depth 8} over {1, depth 1}:
	// the headline number for what pipelining buys one connection.
	PipelineSpeedupX float64 `json:"pipeline_speedup_x"`
}

// runThroughputBench sweeps the cell grid and writes BENCH_throughput.json
// into dir (or the working directory). Every measured cell must stay under
// the absolute allocs/op ceiling; with baseline set, the run also fails if
// any matching cell regressed past the fences of checkThroughputRegression.
func runThroughputBench(dir, baseline string, short bool) error {
	cells, requests := tpAllCells, tpRequests
	if short {
		cells, requests = tpShortCells, tpShortRequests
	}
	rep := tpReport{
		Workload: fmt.Sprintf("%s (n=%d, warehouse hit)", workload.NameLinpack, tpOrder),
		Speed:    tpSpeed,
		Short:    short,
	}
	byKey := make(map[[2]int]tpCell, len(cells))
	for _, c := range cells {
		cell, err := measureThroughputCell(c[0], c[1], requests)
		if err != nil {
			return fmt.Errorf("cell %dx%d: %w", c[0], c[1], err)
		}
		rep.Cells = append(rep.Cells, cell)
		byKey[c] = cell
		fmt.Printf("throughput %d dev x depth %d: %.0f req/s (p50 %.0f µs, p99 %.0f µs, %d allocs/op)\n",
			cell.Devices, cell.Depth, cell.ReqPerSec, cell.P50Micros, cell.P99Micros, cell.AllocsPerOp)
	}
	if serial, ok := byKey[[2]int{1, 1}]; ok && serial.ReqPerSec > 0 {
		if piped, ok := byKey[[2]int{1, 8}]; ok {
			rep.PipelineSpeedupX = piped.ReqPerSec / serial.ReqPerSec
			fmt.Printf("pipeline speedup (1 dev, depth 8 vs 1): %.1fx\n", rep.PipelineSpeedupX)
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	path := "BENCH_throughput.json"
	if dir != "" {
		path = dir + string(os.PathSeparator) + path
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("report in %s\n", path)
	for _, c := range rep.Cells {
		if c.AllocsPerOp >= tpAllocsCap {
			return fmt.Errorf("cell %dx%d: %d allocs/op breaches the absolute ceiling of %d",
				c.Devices, c.Depth, c.AllocsPerOp, tpAllocsCap)
		}
	}
	if baseline != "" {
		return checkThroughputRegression(baseline, rep.Cells)
	}
	return nil
}

// Regression fences against the baseline report. Loopback latencies on
// shared CI machines are noisy: a 3x p50 or a halved req/s is a real
// regression, 20% jitter is not. allocs/op is far steadier, so its fence is
// tight — measured ≤ baseline×factor + flat, where the flat grace absorbs
// scheduler-dependent noise (goroutine stacks, timer churn) that dominates
// when the baseline itself is small — and an absolute ceiling keeps the
// warehouse-hit request (decode, dedup lookup, dispatch, execute, encode;
// client and server both in this process) at double-digit allocations even
// if the baseline is re-pinned carelessly.
const (
	tpMaxP50Factor      = 3.0
	tpMinReqpsFactor    = 0.5
	tpAllocsCap         = 100
	tpAllocsSlackFactor = 1.15
	tpAllocsSlackFlat   = 8
)

// checkThroughputRegression compares each measured cell against the same
// {devices, depth} cell of the baseline report; baseline cells that were
// not run (e.g. a -short run against a full baseline) are skipped.
func checkThroughputRegression(path string, cells []tpCell) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base tpReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseBy := make(map[[2]int]tpCell, len(base.Cells))
	for _, c := range base.Cells {
		baseBy[[2]int{c.Devices, c.Depth}] = c
	}
	for _, c := range cells {
		b, ok := baseBy[[2]int{c.Devices, c.Depth}]
		if !ok {
			continue
		}
		if b.P50Micros > 0 {
			if ratio := c.P50Micros / b.P50Micros; ratio > tpMaxP50Factor {
				return fmt.Errorf("cell %dx%d p50 regressed %.1fx vs baseline %s (%.0f µs now, %.0f µs then; limit %.0fx)",
					c.Devices, c.Depth, ratio, path, c.P50Micros, b.P50Micros, tpMaxP50Factor)
			}
		}
		if b.ReqPerSec > 0 {
			if ratio := c.ReqPerSec / b.ReqPerSec; ratio < tpMinReqpsFactor {
				return fmt.Errorf("cell %dx%d throughput fell to %.2fx of baseline %s (%.0f req/s now, %.0f then; floor %.2fx)",
					c.Devices, c.Depth, ratio, path, c.ReqPerSec, b.ReqPerSec, tpMinReqpsFactor)
			}
		}
		if limit := int64(float64(b.AllocsPerOp)*tpAllocsSlackFactor) + tpAllocsSlackFlat; c.AllocsPerOp > limit {
			return fmt.Errorf("cell %dx%d: %d allocs/op regressed past baseline %d (limit %d = %d×%.2f+%d)",
				c.Devices, c.Depth, c.AllocsPerOp, b.AllocsPerOp, limit, b.AllocsPerOp, tpAllocsSlackFactor, tpAllocsSlackFlat)
		}
		fmt.Printf("cell %dx%d vs baseline %s: p50 %.2fx, req/s %.2fx, allocs/op %d vs %d — ok\n",
			c.Devices, c.Depth, path, c.P50Micros/b.P50Micros, c.ReqPerSec/b.ReqPerSec, c.AllocsPerOp, b.AllocsPerOp)
	}
	return nil
}

// measureThroughputCell boots one pipelined server and drives it with
// `devices` connections, each running a closed loop of `requests` execs
// with up to `depth` in flight. Per-device warm-ups (runtime boot + code
// staging) happen before the timed window; the reported p50/p99 come from
// the server's own latency histogram and allocs/op is the whole-process
// malloc delta over the window divided by measured requests — both client
// and server sides of the wire path run in this process, so the number
// bounds the whole request path's per-request cost.
func measureThroughputCell(devices, depth, requests int) (tpCell, error) {
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.IdleTimeout = 0 // keep the pool warm for the whole window
	srv := realtime.NewServerOpts(cfg, tpSpeed, nil, realtime.Options{PipelineDepth: depth})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return tpCell{}, err
	}
	defer ln.Close()
	go srv.Serve(ln)

	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())
	params := workload.EncodeLinpackParams(7, tpOrder)

	var ready, done sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, devices)
	ready.Add(devices)
	done.Add(devices)
	for i := 0; i < devices; i++ {
		go func(i int) {
			defer done.Done()
			errs[i] = driveThroughputDevice(ln.Addr().String(), fmt.Sprintf("tp-dev-%d", i),
				app, aid, params, depth, requests, &ready, start)
		}(i)
	}
	ready.Wait() // every device connected, warmed up and parked at the gate

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wallStart := time.Now()
	close(start)
	done.Wait()
	wall := time.Since(wallStart)
	runtime.ReadMemStats(&m1)

	for i, err := range errs {
		if err != nil {
			return tpCell{}, fmt.Errorf("device %d: %w", i, err)
		}
	}

	total := devices * requests
	p50, _, p99 := srv.Latency().Percentiles()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	allocsPerOp := int64(m1.Mallocs-m0.Mallocs) / int64(total)
	// Publish into the server's registry so the number rides along with
	// /metrics scrapes of the same run, then report the registry's view.
	srv.Metrics().Gauge("server.bench.allocs_per_op").Set(allocsPerOp)

	return tpCell{
		Devices:     devices,
		Depth:       depth,
		Requests:    requests,
		ReqPerSec:   float64(total) / wall.Seconds(),
		P50Micros:   us(p50),
		P99Micros:   us(p99),
		AllocsPerOp: srv.Metrics().Snapshot().Gauges["server.bench.allocs_per_op"],
	}, nil
}

// driveThroughputDevice runs one device's closed loop: dial, hello, one
// warm-up exec (boots the runtime; first device also stages the code),
// then park on the start gate and pump `requests` pipelined execs.
func driveThroughputDevice(addr, deviceID string, app workload.App, aid string, params []byte,
	depth, requests int, ready *sync.WaitGroup, start <-chan struct{}) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		ready.Done()
		return err
	}
	defer conn.Close()
	var badResult error
	pc := offload.NewPipelineClient(offload.NewConn(conn), depth,
		func(need offload.NeedCode) (offload.CodePush, error) {
			return offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}, nil
		},
		func(res offload.Result) {
			if res.Err != "" && badResult == nil {
				badResult = fmt.Errorf("request %d: cloud error: %s", res.Seq, res.Err)
			}
		})
	exec := func(seq int) offload.ExecRequest {
		return offload.ExecRequest{
			DeviceID: deviceID, AID: aid, App: app.Name(), Method: "solve", Seq: seq,
			Params: params, ParamBytes: 500,
		}
	}
	warmUp := func() error {
		if err := pc.Hello(deviceID); err != nil {
			return err
		}
		if err := pc.Submit(exec(0)); err != nil {
			return err
		}
		return pc.Flush()
	}
	if err := warmUp(); err != nil {
		ready.Done()
		return err
	}
	ready.Done()
	<-start
	for seq := 1; seq <= requests; seq++ {
		if err := pc.Submit(exec(seq)); err != nil {
			return fmt.Errorf("request %d: %w", seq, err)
		}
	}
	if err := pc.Flush(); err != nil {
		return err
	}
	return badResult
}
