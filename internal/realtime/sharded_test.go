package realtime

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rattrap/internal/offload"
	"rattrap/internal/workload"
)

// TestServerShardedConcurrent is the cluster -race stress: a 4-shard
// server driven by 8 concurrent device connections, each offloading its
// own app (unique AID) through a pipelined client. Every shard runs its
// own engine and pacing driver, so this exercises the shard routing, the
// per-shard drivers and the shared output path under real goroutine
// concurrency; `go test -race` is the configuration CI runs it in.
func TestServerShardedConcurrent(t *testing.T) {
	srv, ln := startServerOpts(t, Options{PipelineDepth: 2, Shards: 4})
	if got := srv.Shards(); got != 4 {
		t.Fatalf("Shards() = %d", got)
	}
	app, _ := workload.ByName(workload.NameLinpack)
	baseAID := offload.AID(app.Name(), app.CodeSize())

	const (
		devices  = 8
		requests = 6
	)
	var wg sync.WaitGroup
	errs := make([]error, devices)
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = driveShardedDevice(ln.Addr().String(), fmt.Sprintf("sh-dev-%d", i),
				fmt.Sprintf("%s#d%d", baseAID, i), app, requests)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}

	if n := waitLatencyCount(srv, devices*requests); n != devices*requests {
		t.Fatalf("latency observations = %d, want %d", n, devices*requests)
	}
	// The unique AIDs must have spread the pool over several shards, and
	// every runtime must carry its shard's CID prefix.
	used, execs := 0, 0
	for s := 0; s < srv.Shards(); s++ {
		snap := srv.ShardPlatform(s).DB().Snapshot()
		execs += snap.TotalExec
		if len(snap.Runtimes) == 0 {
			continue
		}
		used++
		for _, rt := range srv.ShardPlatform(s).DB().List() {
			if want := fmt.Sprintf("s%d-", s); len(rt.CID) < len(want) || rt.CID[:len(want)] != want {
				t.Fatalf("shard %d runtime %q missing CID prefix %q", s, rt.CID, want)
			}
		}
	}
	if used < 2 {
		t.Fatalf("all load landed on %d shard(s)", used)
	}
	if execs != devices*requests {
		t.Fatalf("executions across shards = %d, want %d", execs, devices*requests)
	}
}

// driveShardedDevice pumps `requests` pipelined execs for one device under
// a synthetic per-device AID (code pushes answer with the same AID, so the
// warehouse stores one entry per device on its owning shard).
func driveShardedDevice(addr, deviceID, aid string, app workload.App, requests int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	var badResult error
	pc := offload.NewPipelineClient(offload.NewConn(conn), 2,
		func(need offload.NeedCode) (offload.CodePush, error) {
			return offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}, nil
		},
		func(res offload.Result) {
			if res.Err != "" && badResult == nil {
				badResult = fmt.Errorf("seq %d: cloud error: %s", res.Seq, res.Err)
			}
		})
	if err := pc.Hello(deviceID); err != nil {
		return err
	}
	for seq := 0; seq < requests; seq++ {
		task := app.NewTask(testRng(seq), seq)
		if err := pc.Submit(offload.ExecRequest{
			DeviceID: deviceID, AID: aid, App: task.App, Method: task.Method,
			Seq: seq, Params: task.Params, ParamBytes: task.ParamBytes,
		}); err != nil {
			return fmt.Errorf("submit %d: %w", seq, err)
		}
	}
	if err := pc.Flush(); err != nil {
		return err
	}
	return badResult
}
