package realtime

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"rattrap/internal/cluster"
	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// helloOverWire dials addr and completes a hello, returning the connection
// pair for the rest of the exchange.
func helloOverWire(t *testing.T, addr, dev string) (net.Conn, *offload.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := offload.NewConn(conn)
	if err := c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: dev}}); err != nil {
		t.Fatal(err)
	}
	return conn, c
}

// execOnce runs one warehouse exchange (pushing code if asked) on an
// already-helloed connection and returns the result.
func execOnce(t *testing.T, c *offload.Conn, app workload.App, seq int) offload.Result {
	t.Helper()
	task := app.NewTask(testRng(seq), seq)
	aid := offload.AID(app.Name(), app.CodeSize())
	if err := c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
		AID: aid, App: task.App, Method: task.Method, Seq: task.Seq,
		Params: task.Params, ParamBytes: task.ParamBytes,
		FileBytes: task.FileBytes, RoundTrips: task.RoundTrips, InteractBytes: task.InteractBytes,
	}}); err != nil {
		t.Fatal(err)
	}
	f, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind == offload.KindNeedCode {
		if err := c.Send(offload.Frame{Kind: offload.KindCode, Code: &offload.CodePush{
			AID: aid, App: app.Name(), Size: app.CodeSize(),
		}}); err != nil {
			t.Fatal(err)
		}
		if f, err = c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if f.Kind != offload.KindResult {
		t.Fatalf("expected result, got %s", f.Kind)
	}
	return *f.Result
}

// TestServerWireNegotiation covers the handshake: a well-formed hello is
// served, an unknown wire version gets a typed refusal (not a dropped
// connection), and a mid-handshake disconnect is shrugged off. (The first
// subtest's name predates the single-codec wire — every server is the
// "auto" server now — and is kept so test history lines up.)
func TestServerWireNegotiation(t *testing.T) {
	app, _ := workload.ByName(workload.NameLinpack)

	t.Run("binary client, auto server", func(t *testing.T) {
		_, ln := startServerOpts(t, Options{})
		_, c := helloOverWire(t, ln.Addr().String(), "bin-dev")
		res := execOnce(t, c, app, 0)
		if res.Err != "" || res.Output == "" {
			t.Fatalf("binary request failed: %+v", res)
		}
	})

	t.Run("unknown wire version", func(t *testing.T) {
		_, ln := startServerOpts(t, Options{})
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Hand-framed binary hello advertising wire version 9.
		payload := []byte{0xB1, 0x09, 0x01, 0x00, 0x01, 'd', 0x09}
		if _, err := conn.Write(append([]byte{byte(len(payload))}, payload...)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := offload.NewConn(conn).Recv()
		if err != nil {
			t.Fatalf("expected a typed protocol error frame, got recv error %v", err)
		}
		if f.Kind != offload.KindResult || f.Result.Code != offload.CodeProtocol {
			t.Fatalf("expected protocol-error result, got %+v", f)
		}
		if !strings.Contains(f.Result.Err, "version 9") {
			t.Fatalf("refusal does not name the version: %q", f.Result.Err)
		}
	})

	t.Run("mid-handshake disconnect", func(t *testing.T) {
		srv, ln := startServerOpts(t, Options{})
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// Declare a 40-byte hello, deliver 2 bytes, hang up.
		if _, err := conn.Write([]byte{40, 0xB1, 0x01}); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		// The server must shrug it off and keep serving.
		_, c := helloOverWire(t, ln.Addr().String(), "after-dc")
		if res := execOnce(t, c, app, 0); res.Err != "" {
			t.Fatalf("request after disconnect: %+v", res)
		}
		if n := waitLatencyCount(srv, 1); n != 1 {
			t.Fatalf("latency observations = %d, want only the completed request", n)
		}
	})
}

// TestServerRejectsNonBinaryHello: a first frame that does not open with
// the wire magic — here the opening bytes of a pre-binary gob client's
// hello stream — is answered with a typed CodeProtocol result frame and a
// hangup. Nothing is booted or pinned on its behalf, and the server keeps
// serving.
func TestServerRejectsNonBinaryHello(t *testing.T) {
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 1)
	s.at(0, "gob", func(p *sim.Proc) {
		c := s.dial()
		d := &vDev{c: c, p: p}
		defer d.hangUp()
		payload := []byte{0x37, 0xff, 0x81, 0x03, 0x01, 0x01, 0x05, 'F', 'r', 'a', 'm', 'e', 0x01, 0xff, 0x82}
		c.up.Write(append([]byte{byte(len(payload))}, payload...))
		f, err := d.recv()
		if err != nil || f.Kind != offload.KindResult || f.Result.Code != offload.CodeProtocol || f.Result.Err == "" {
			t.Errorf("expected a protocol-error result, got %+v / %v", f, err)
		}
		if _, err := d.recv(); err == nil {
			t.Error("server kept the connection open after a non-binary hello")
		}
		if n := s.pr.cl.Shard(0).RuntimeCount(); n != 0 {
			t.Errorf("rejected hello booted %d runtimes", n)
		}
		if n := s.pr.lat.Count(); n != 0 {
			t.Errorf("latency observations = %d for a connection that never sent a request", n)
		}
		after := s.connect(p, "after-gob")
		defer after.hangUp()
		if res, _, err := after.offload(linpack, 0); err != nil || res.Err != "" || res.Output == "" {
			t.Errorf("request after the rejected hello: %+v, %v", res, err)
		}
	})
	s.run()
}

// TestServerRejectsProtocolViolations: an exec before the hello is
// explained in an error Result frame, then the connection is dropped.
func TestServerRejectsProtocolViolations(t *testing.T) {
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 1)
	s.at(0, "rude", func(p *sim.Proc) {
		d := &vDev{c: s.dial(), p: p}
		defer d.hangUp()
		d.send(execFrame(chess, 0))
		f, err := d.recv()
		if err != nil || f.Kind != offload.KindResult || f.Result.Code != offload.CodeProtocol || f.Result.Err == "" {
			t.Errorf("violation reply = %+v / %v, want a CodeProtocol result", f, err)
		}
		if _, err := d.recv(); err == nil {
			t.Error("server kept the connection open after a protocol violation")
		}
	})
	s.run()
}

// TestServerBinaryPipelineAliasing is the -race gate on the zero-copy
// contract: a depth-8 binary pipeline sends requests whose Params all
// alias the connection's recycled read buffers, each with a distinct
// parameter blob. If the server recycled a buffer before its worker
// consumed the params, a worker would decode some other request's
// parameters and return the wrong output (or a decode error) — and the
// race detector would flag the unsynchronized reuse.
func TestServerBinaryPipelineAliasing(t *testing.T) {
	const depth, requests = 8, 48
	_, ln := startServerOpts(t, Options{PipelineDepth: depth})

	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())
	reg := workload.NewRegistry()

	// Distinct params per seq, with the expected output computed locally.
	params := make([][]byte, requests)
	want := make([]string, requests)
	for i := range params {
		params[i] = workload.EncodeLinpackParams(int64(1000+i), 24+i%5)
		m, err := reg.Execute(workload.Task{App: app.Name(), Method: "solve", Params: params[i]})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m.Output
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got := make([]string, requests)
	errs := make([]string, requests)
	pc := offload.NewPipelineClient(offload.NewConn(conn), depth,
		func(need offload.NeedCode) (offload.CodePush, error) {
			return offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}, nil
		},
		func(res offload.Result) {
			if res.Seq < 0 || res.Seq >= requests {
				t.Errorf("result for unknown seq %d", res.Seq)
				return
			}
			got[res.Seq], errs[res.Seq] = res.Output, res.Err
		})
	if err := pc.Hello("alias-dev"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < requests; i++ {
		if err := pc.Submit(offload.ExecRequest{
			AID: aid, App: app.Name(), Method: "solve", Seq: i,
			Params: params[i], ParamBytes: 500,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < requests; i++ {
		if errs[i] != "" {
			t.Fatalf("request %d failed: %s", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("request %d: output %q, want %q — params were clobbered by buffer reuse", i, got[i], want[i])
		}
	}
}

// repeatStream endlessly replays one encoded frame as the read side and
// discards writes — a loopback stand-in that keeps the hot-path gate
// single-goroutine (testing.AllocsPerRun reads global heap stats, so a
// live server's background goroutines would pollute the measurement).
type repeatStream struct {
	data []byte
	pos  int
}

func (r *repeatStream) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		r.pos = 0
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

func (r *repeatStream) Write(p []byte) (int, error) { return len(p), nil }

// TestServerHotPathZeroAlloc extends the zero-alloc gate from frame
// encode to the server's warehouse-hit steady-state frame handling:
// decode an exec frame (binary), route its AID through the shard ring,
// look it up in the dedup window, and encode the result reply — all
// without touching the heap. The full request path including the engine
// dispatch is measured end to end as `allocs_per_req` on benchmark/'s
// tcp-warm-serial; this test pins the codec-and-lookup layer to zero.
func TestServerHotPathZeroAlloc(t *testing.T) {
	var enc bytes.Buffer
	params := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := offload.NewConn(&enc).Send(offload.Frame{
		Kind: offload.KindExec, Exec: &offload.ExecRequest{
			AID: "a1b2c3d4", App: "Linpack", Method: "solve", Seq: 3,
			Params: params, ParamBytes: 500,
		}}); err != nil {
		t.Fatal(err)
	}
	c := offload.NewConn(&repeatStream{data: enc.Bytes()})
	mem := cluster.NewMembership(4, 0, 1)
	dedup := newDedupCache(64)
	res := offload.Result{Output: "n=64 residual=1.08e-13", ResultBytes: 550}

	hot := func() {
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		req := *f.Exec
		if mem.Primary(req.AID) < 0 {
			t.Fatal("membership routed nowhere")
		}
		key := dedupKey{dev: "phone-1", aid: req.AID, seq: req.Seq}
		if _, hit := dedup.lookup(key); hit {
			t.Fatal("unexpected dedup hit")
		}
		res.Seq = req.Seq
		if err := c.SendResult(&res); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		hot() // warm: intern strings, seat buffers
	}
	if avg := testing.AllocsPerRun(200, hot); avg != 0 {
		t.Fatalf("warehouse-hit frame path allocates %.1f times per request, want 0", avg)
	}
}

// TestPrecomputeMatchesEngineExecution pins the determinism assumption
// the precompute fast path rests on: for every app, executing a task
// ahead of time yields byte-identical metrics to executing it at
// dispatch, so attaching the precomputed result cannot change outputs.
func TestPrecomputeMatchesEngineExecution(t *testing.T) {
	reg := workload.NewRegistry()
	for _, app := range workload.Apps() {
		for seq := 0; seq < 3; seq++ {
			task := app.NewTask(testRng(seq), seq)
			direct, err := reg.Execute(task)
			if err != nil {
				t.Fatalf("%s: %v", app.Name(), err)
			}
			pre := task
			pre.SetPrecomputed(&workload.Precomputed{Metrics: direct})
			viaPre, err := reg.Execute(pre)
			if err != nil {
				t.Fatalf("%s precomputed: %v", app.Name(), err)
			}
			if fmt.Sprintf("%+v", direct) != fmt.Sprintf("%+v", viaPre) {
				t.Fatalf("%s: precomputed metrics diverge:\n%+v\n%+v", app.Name(), direct, viaPre)
			}
			again, err := reg.Execute(task)
			if err != nil {
				t.Fatalf("%s re-run: %v", app.Name(), err)
			}
			if direct.Output != again.Output || direct.Work != again.Work {
				t.Fatalf("%s: execution not deterministic: %+v vs %+v", app.Name(), direct, again)
			}
		}
	}
}

var _ io.ReadWriter = (*repeatStream)(nil)
