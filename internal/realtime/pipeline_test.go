package realtime

import (
	"net"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/workload"
)

// TestServerPipelinedRequests drives one connection with more requests
// than the pipeline window and checks that every one resolves correctly:
// cold-start code transfer routed by seq, results matched by Result.Seq,
// one latency observation per result, and no re-execution.
func TestServerPipelinedRequests(t *testing.T) {
	const (
		depth = 4
		total = 12
	)
	srv, ln := startServerOpts(t, Options{PipelineDepth: depth})
	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	results := make(map[int]offload.Result)
	var order []int
	pc := offload.NewPipelineClient(offload.NewConn(conn), depth,
		func(need offload.NeedCode) (offload.CodePush, error) {
			if need.AID != aid {
				t.Errorf("NEED_CODE for AID %q, want %q", need.AID, aid)
			}
			return offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}, nil
		},
		func(r offload.Result) {
			results[r.Seq] = r
			order = append(order, r.Seq)
		})
	if err := pc.Hello("pipedev"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		task := app.NewTask(testRng(i), i)
		if err := pc.Submit(offload.ExecRequest{
			DeviceID: "pipedev", AID: aid, App: task.App, Method: task.Method,
			Seq: i, Params: task.Params, ParamBytes: task.ParamBytes,
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := pc.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(results) != total {
		t.Fatalf("resolved %d of %d requests (order %v)", len(results), total, order)
	}
	for seq, r := range results {
		if r.Err != "" || r.Output == "" {
			t.Fatalf("seq %d failed: %+v", seq, r)
		}
		if r.Seq != seq {
			t.Fatalf("seq mismatch: %d vs %+v", seq, r)
		}
	}
	if n := waitLatencyCount(srv, total); n != total {
		t.Fatalf("latency observations = %d, want %d", n, total)
	}
	if execs := srv.Cluster().Shard(0).DB().Snapshot().TotalExec; execs != total {
		t.Fatalf("executions = %d, want %d", execs, total)
	}
}

// TestServerPipelineDepthOne pins that the pipelined machinery at depth 1
// behaves exactly like the old serial handler from a client's view: a
// serial client (no Seq on its code pushes) completes a cold-start
// exchange through the FIFO routing fallback.
func TestServerPipelineDepthOne(t *testing.T) {
	srv, ln := startServerOpts(t, Options{PipelineDepth: 1})
	app, _ := workload.ByName(workload.NameChess)
	res, needed := runClient(t, ln.Addr().String(), "serial-dev", app, 0)
	if res.Err != "" || res.Output == "" {
		t.Fatalf("serial client on pipelined server: %+v", res)
	}
	if !needed {
		t.Fatal("cold start should have asked for code")
	}
	if n := waitLatencyCount(srv, 1); n != 1 {
		t.Fatalf("latency observations = %d, want 1", n)
	}
}

// TestServerCloseUnblocksAdmission pins the Close fix for pipelined
// connections: a decode loop parked on the per-connection admission
// semaphore (window full of in-flight requests) is not blocked in a read,
// so closing the socket alone cannot unpark it. Close must still return
// promptly — the close signal has to reach the admission wait directly.
func TestServerCloseUnblocksAdmission(t *testing.T) {
	srv := NewServerOpts(core.DefaultConfig(core.KindRattrap), 200, nil, Options{
		PipelineDepth: 1,
		// Long read timeout: if Close relied on the code-wait timer to
		// free the admission slot, this test would take 30s and fail.
		ReadTimeout: 30 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	c := offload.NewConn(conn)
	app, _ := workload.ByName(workload.NameChess)
	aid := offload.AID(app.Name(), app.CodeSize())
	if err := c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: "parked"}}); err != nil {
		t.Fatal(err)
	}
	// First request goes cold: the worker parks in its code wait, holding
	// the only admission token.
	task := app.NewTask(testRng(0), 0)
	if err := c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
		DeviceID: "parked", AID: aid, App: task.App, Method: task.Method,
		Seq: 0, Params: task.Params, ParamBytes: task.ParamBytes,
	}}); err != nil {
		t.Fatal(err)
	}
	if f, err := c.Recv(); err != nil || f.Kind != offload.KindNeedCode {
		t.Fatalf("expected NEED_CODE, got %v / %v", f.Kind, err)
	}
	// Second request parks the decode loop on the admission semaphore.
	task2 := app.NewTask(testRng(1), 1)
	if err := c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
		DeviceID: "parked", AID: aid, App: task2.App, Method: task2.Method,
		Seq: 1, Params: task2.Params, ParamBytes: task2.ParamBytes,
	}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the decode loop reach the park

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not unblock the admission-parked decode loop")
	}
}
