package realtime

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

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

// connWorkers counts the live request-worker goroutines of every connection
// in the process (tests in this package do not run in parallel, so: of the
// calling test's server).
func connWorkers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "realtime.(*connHandler).worker(")
}

// TestConnWorkersBoundedByDepth pins the worker-per-pipeline-slot design: a
// connection's requests run on at most PipelineDepth goroutines however many
// it sends and however far ahead the client writes, those goroutines outlive
// the requests (the next request finds a grown stack), and Close leaves none
// behind.
func TestConnWorkersBoundedByDepth(t *testing.T) {
	for _, depth := range []int{1, 3} {
		srv, ln := startServerOpts(t, Options{PipelineDepth: depth})
		app, _ := workload.ByName(workload.NameLinpack)
		aid := offload.AID(app.Name(), app.CodeSize())
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second))

		results, peak := 0, 0
		// The client keeps twice the server's depth in flight, so the
		// decode loop spends the run blocked on a full pipeline.
		pc := offload.NewPipelineClient(offload.NewConn(conn), 2*depth,
			func(offload.NeedCode) (offload.CodePush, error) {
				return offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}, nil
			},
			func(r offload.Result) {
				if r.Err != "" {
					t.Errorf("depth %d: seq %d failed: %+v", depth, r.Seq, r)
				}
				results++
				if n := connWorkers(); n > peak {
					peak = n
				}
			})
		if err := pc.Hello("workers-dev"); err != nil {
			t.Fatal(err)
		}
		total := 1 + 20*depth
		for i := 0; i < total; i++ {
			task := app.NewTask(testRng(i), i)
			if err := pc.Submit(offload.ExecRequest{
				DeviceID: "workers-dev", AID: aid, App: task.App, Method: task.Method,
				Seq: i, Params: task.Params, ParamBytes: task.ParamBytes,
			}); err != nil {
				t.Fatalf("depth %d: submit %d: %v", depth, i, err)
			}
			if i == 0 {
				// The cold request alone: its code push must not queue
				// behind exec frames the decode loop has stopped reading.
				if err := pc.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := pc.Flush(); err != nil {
			t.Fatal(err)
		}
		if results != total {
			t.Fatalf("depth %d: %d of %d requests resolved", depth, results, total)
		}
		if peak > depth {
			t.Errorf("depth %d: %d request workers alive at once", depth, peak)
		}
		if n := connWorkers(); n < 1 || n > depth {
			t.Errorf("depth %d: %d request workers on the idle connection, want 1..%d", depth, n, depth)
		}
		srv.Close()
		if n := connWorkers(); n != 0 {
			t.Errorf("depth %d: %d request workers survive Close", depth, n)
		}
	}
}
