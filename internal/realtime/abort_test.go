package realtime

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

func startServerCfg(t *testing.T, cfg core.Config, opts Options) (*Server, net.Listener) {
	t.Helper()
	srv := NewServerOpts(cfg, 200, nil, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	return srv, ln
}

// TestConnTeardownAbortsQueuedWaiters pins the abort wiring end to end
// under -race: with a single runtime pinned by a slow-loris device, a
// pack of devices parks in the dispatcher's wait ring — then every one of
// them hangs up. Their connection teardowns must fire the per-connection
// abort signal, so the queued waiters return ErrAborted instead of each
// taking a turn executing for a caller that is gone. When the loris is
// finally cut off by its read deadline, the release must skip the corpse
// waiters and a fresh device must be served at once — not after a parade
// of ghost executions.
func TestConnTeardownAbortsQueuedWaiters(t *testing.T) {
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.MaxRuntimes = 1
	srv, ln := startServerCfg(t, cfg, Options{ReadTimeout: 600 * time.Millisecond})
	app, _ := workload.ByName(workload.NameChess)
	aid := offload.AID(app.Name(), app.CodeSize())

	// The loris claims the only runtime, is told to push code, and goes
	// silent until the server's read deadline cuts it off.
	loris, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	lc := offload.NewConn(loris)
	task := app.NewTask(testRng(0), 0)
	if err := lc.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: "loris"}}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
		DeviceID: "loris", AID: aid, App: task.App, Method: task.Method,
		Params: task.Params, ParamBytes: task.ParamBytes,
	}}); err != nil {
		t.Fatal(err)
	}
	loris.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := lc.Recv(); err != nil || f.Kind != offload.KindNeedCode {
		t.Fatalf("expected NEED_CODE, got %v / %v", f.Kind, err)
	}

	// The pack queues behind the pinned slot, then vanishes.
	const doomed = 6
	pack := make([]net.Conn, 0, doomed)
	for i := 0; i < doomed; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := offload.NewConn(conn)
		dev := fmt.Sprintf("doomed-%d", i)
		dtask := app.NewTask(testRng(i+1), i+1)
		if err := c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: dev}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
			DeviceID: dev, AID: aid, App: dtask.App, Method: dtask.Method,
			Seq: i + 1, Params: dtask.Params, ParamBytes: dtask.ParamBytes,
		}}); err != nil {
			t.Fatal(err)
		}
		pack = append(pack, conn)
	}
	// Wait until the whole pack is parked in the wait ring.
	pl := srv.Cluster().Shard(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		qlen := 0
		srv.Driver().Do("probe-queue", func(p *sim.Proc) { qlen = pl.QueueLength() })
		if qlen >= doomed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pack never queued: queue length %d", qlen)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var wg sync.WaitGroup
	for _, conn := range pack {
		conn := conn
		wg.Add(1)
		go func() { defer wg.Done(); conn.Close() }()
	}
	wg.Wait()

	// A fresh device must get served once the loris deadline frees the
	// slot — one release, straight past the aborted corpses.
	res, _ := runClient(t, ln.Addr().String(), "fresh", app, 99)
	if res.Err != "" || res.Output == "" {
		t.Fatalf("fresh request after the abort storm failed: %+v", res)
	}

	// The ring must fully drain and nothing may be left busy.
	deadline = time.Now().Add(10 * time.Second)
	for {
		qlen, busy := 0, 0
		srv.Driver().Do("probe-drain", func(p *sim.Proc) {
			qlen = pl.QueueLength()
			busy = pl.DB().StateCount(core.LifecycleActive)
		})
		if qlen == 0 && busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue/busy never drained: queue %d, active %d", qlen, busy)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShardedAutoscaleConcurrent is the elastic-pool -race stress: a
// 4-shard server with the control loop running on every shard, driven by
// 8 concurrent pipelined devices with unique AIDs. All requests must
// succeed while the loops grow the pools, and once the load stops every
// shard must shrink back to zero.
func TestShardedAutoscaleConcurrent(t *testing.T) {
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.MaxRuntimes = 2
	cfg.MinRuntimes = 0
	cfg.Autoscale = core.AutoscaleConfig{Enabled: true, Interval: 100 * time.Millisecond}
	srv, ln := startServerCfg(t, cfg, Options{PipelineDepth: 2, Shards: 4})
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
			errs[i] = driveShardedDevice(ln.Addr().String(), fmt.Sprintf("as-dev-%d", i),
				fmt.Sprintf("%s#d%d", baseAID, i), app, requests)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}
	// The DB census is no good for counting here — the control loops
	// reclaim idle runtimes (and their records) as soon as the load
	// stops — so count served requests at the server's histogram.
	if n := waitLatencyCount(srv, devices*requests); n != devices*requests {
		t.Fatalf("latency observations = %d, want %d", n, devices*requests)
	}

	// Load gone: every shard's control loop must scale its pool to zero.
	// Virtual time is paced at 200x, so the shrink hysteresis elapses in
	// wall milliseconds.
	deadline := time.Now().Add(15 * time.Second)
	for {
		total := 0
		for s := 0; s < srv.Cluster().Shards(); s++ {
			s := s
			srv.Driver().Do("probe-pool", func(p *sim.Proc) {
				total += srv.Cluster().Shard(s).RuntimeCount()
			})
		}
		if total == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pools never scaled to zero: %d runtime(s) left", total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
