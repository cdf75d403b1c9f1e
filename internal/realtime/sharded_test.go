package realtime

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rattrap/internal/cluster"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestServerShardedConcurrent is the cluster -race stress: a 4-shard
// server driven by 8 concurrent device connections, each offloading its
// own app (unique AID) through a pipelined client. This exercises the
// cluster's routing under the one driver and the shared output path under
// real goroutine concurrency; `go test -race` is the configuration CI runs
// it in.
func TestServerShardedConcurrent(t *testing.T) {
	srv, ln := startServerOpts(t, Options{PipelineDepth: 2, Shards: 4})
	if got := srv.Cluster().Shards(); got != 4 {
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
	for s := 0; s < srv.Cluster().Shards(); s++ {
		snap := srv.Cluster().Shard(s).DB().Snapshot()
		execs += snap.TotalExec
		if len(snap.Runtimes) == 0 {
			continue
		}
		used++
		for _, rt := range srv.Cluster().Shard(s).DB().List() {
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

// TestErrorResultShardDown: a shard crashing under a session is a
// retryable condition — the membership has already routed around it — so
// the device must see the typed overload code it already retries on, with
// no backoff hint, not a permanent internal error.
func TestErrorResultShardDown(t *testing.T) {
	res := errorResult(&cluster.ShardError{Shard: 1, Err: cluster.ErrShardDown})
	if res.Code != offload.CodeOverloaded || res.RetryAfterMs != 0 {
		t.Fatalf("shard-down reply = code %q retry-after %dms, want %q and 0", res.Code, res.RetryAfterMs, offload.CodeOverloaded)
	}
	if !strings.Contains(res.Err, "shard 1") {
		t.Fatalf("shard-down reply %q does not name the shard", res.Err)
	}
	if res := errorResult(&cluster.ShardError{Shard: 1, Err: errors.New("boom")}); res.Code != offload.CodeInternal {
		t.Fatalf("untyped shard error classified %q, want %q", res.Code, offload.CodeInternal)
	}
}

// TestServerKillOneAddOne is scenarios/reshard-live.yaml over real TCP: a
// 3-shard server under a continuous stream of pipelined devices (one AID
// each) loses shard 1 to a crash and gains shard 3, both issued through
// the driver while requests are in flight. Sessions caught on the dead
// shard come back as retryable overload replies; the retry routes to a
// survivor, which asks for the code again (R=1: the crash took the cached
// copy) and serves it. Every request must end in a success, the
// membership must show two epoch advances and three live shards, and the
// joined shard must take traffic under its own CID and instrument prefix.
func TestServerKillOneAddOne(t *testing.T) {
	srv, ln := startServerOpts(t, Options{PipelineDepth: 2, Shards: 3})
	cl := srv.Cluster()
	app, _ := workload.ByName(workload.NameLinpack)
	baseAID := offload.AID(app.Name(), app.CodeSize())

	const devices = 12
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, devices)
	served := make([]int, devices)
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			served[i], errs[i] = streamShardedDevice(ln.Addr().String(), fmt.Sprintf("ko-dev-%d", i),
				fmt.Sprintf("%s#d%d", baseAID, i), app, stop)
		}(i)
	}
	// Whatever happens below, the stream is stopped and drained before the
	// server's cleanup runs.
	stopped := false
	finish := func() {
		if !stopped {
			stopped = true
			close(stop)
			wg.Wait()
		}
	}
	defer finish()

	if n := waitLatencyCount(srv, 4*devices); n < 4*devices {
		t.Fatalf("stream never got going: %d results", n)
	}
	srv.Driver().Do("fail-shard", func(p *sim.Proc) {
		if !cl.FailShard(1) {
			t.Error("FailShard(1) refused a live shard")
		}
	})
	if n := waitLatencyCount(srv, 8*devices); n < 8*devices {
		t.Fatalf("stream stalled after the crash: %d results", n)
	}
	joined := -1
	srv.Driver().Do("add-shard", func(p *sim.Proc) { joined = cl.AddShard() })
	if joined != 3 {
		t.Fatalf("AddShard() = %d, want 3", joined)
	}

	// Keep the stream running until the join has commissioned and the new
	// shard has executed something.
	var epoch uint64
	var live, joinedExecs int
	deadline := time.Now().Add(15 * time.Second)
	for {
		srv.Driver().Do("probe-membership", func(p *sim.Proc) {
			epoch, live = cl.Epoch(), cl.Membership().LiveCount()
			joinedExecs = cl.Shard(joined).DB().Snapshot().TotalExec
		})
		if epoch == 2 && live == 3 && joinedExecs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("join never took traffic: epoch %d, live %d, shard %d execs %d", epoch, live, joined, joinedExecs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	finish()

	total := 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		total += served[i]
	}
	if total < 8*devices {
		t.Fatalf("devices saw %d successes, fewer than the %d the server had already sent mid-stream", total, 8*devices)
	}
	srv.Driver().Do("probe-final", func(p *sim.Proc) {
		if st := cl.Membership().State(1); st != cluster.ShardDead {
			t.Errorf("failed shard state = %v, want dead", st)
		}
		for _, rt := range cl.Shard(joined).DB().List() {
			if !strings.HasPrefix(rt.CID, "s3-") {
				t.Errorf("joined shard runtime %q missing CID prefix s3-", rt.CID)
			}
		}
	})
	found := false
	for name := range srv.Metrics().Snapshot().Counters {
		if strings.HasPrefix(name, "shard3.") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no shard3.* instruments in Metrics() after the join")
	}
}

// streamShardedDevice keeps two execs in flight for one device and AID
// until stop closes, resubmitting any request the server answers with the
// retryable overload code (a session caught on a crashed shard). It returns
// how many requests succeeded; any other error reply, or a request still
// failing after several attempts, is an error.
func streamShardedDevice(addr, deviceID, aid string, app workload.App, stop <-chan struct{}) (int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	const maxAttempts = 5
	var (
		served   int
		retry    []int
		attempts = make(map[int]int)
		bad      error
	)
	pc := offload.NewPipelineClient(offload.NewConn(conn), 2,
		func(need offload.NeedCode) (offload.CodePush, error) {
			return offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}, nil
		},
		func(res offload.Result) {
			switch {
			case res.Err == "":
				served++
			case res.Code == offload.CodeOverloaded && attempts[res.Seq] < maxAttempts:
				retry = append(retry, res.Seq)
			case bad == nil:
				bad = fmt.Errorf("seq %d (attempt %d): %s error: %s", res.Seq, attempts[res.Seq], res.Code, res.Err)
			}
		})
	if err := pc.Hello(deviceID); err != nil {
		return 0, err
	}
	submit := func(seq int) error {
		attempts[seq]++
		task := app.NewTask(testRng(seq), seq)
		return pc.Submit(offload.ExecRequest{
			DeviceID: deviceID, AID: aid, App: task.App, Method: task.Method,
			Seq: seq, Params: task.Params, ParamBytes: task.ParamBytes,
		})
	}
	for next := 0; bad == nil; {
		seq := next
		if len(retry) > 0 {
			seq, retry = retry[0], retry[1:]
		} else {
			select {
			case <-stop:
				if err := pc.Flush(); err != nil {
					return served, err
				}
				if len(retry) == 0 {
					return served, bad
				}
				continue
			default:
			}
			next++
		}
		if err := submit(seq); err != nil {
			return served, fmt.Errorf("submit %d: %w", seq, err)
		}
	}
	return served, bad
}
