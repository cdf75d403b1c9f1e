package realtime

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// Tests of the TCP adapter itself: the accept loop, Close, the send side and
// the wall-clock deadline plumbing. The protocol it carries is tested on
// the virtual transport (virtual_test.go).

func startServerOpts(t *testing.T, opts Options) (*Server, net.Listener) {
	t.Helper()
	return startServerCfg(t, core.DefaultConfig(core.KindRattrap), opts)
}

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

// waitUntil returns once cond holds, polling it on a goroutine of its own;
// the wall clock is only its upper bound.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	held, stop := make(chan struct{}), make(chan struct{})
	defer close(stop)
	go func() {
		for !cond() {
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
		close(held)
	}()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: not within 10 s", what)
	}
}

// waitLatencyCount returns the server's latency-observation count once it
// has reached want, or after five seconds if it never does. A connection's
// send observes a request's latency (and counts its result) just *after*
// sending the result frame, so a client can have its reply in hand before
// the count moves. It polls between waits of a tenth of a virtual second on
// the server's own paced driver.
func waitLatencyCount(srv *Server, want int64) int64 {
	deadline := time.Now().Add(5 * time.Second)
	for srv.Latency().Count() < want && time.Now().Before(deadline) {
		srv.Driver().Do("wait", func(p *sim.Proc) { p.Sleep(100 * time.Millisecond) })
	}
	return srv.Latency().Count()
}

// TestServerCloseDrainsInflightHandlers: Close must wait for connection
// handlers that are mid-request (inside driver injections) before it
// stops the driver — otherwise the handler's deferred release would race
// a dead driver.
func TestServerCloseDrainsInflightHandlers(t *testing.T) {
	srv := NewServerOpts(core.DefaultConfig(core.KindRattrap), 200, nil, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer ln.Close()

	app, _ := workload.ByName(workload.NameLinpack)
	inFlight := make(chan struct{})
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Error(err)
			close(inFlight)
			return
		}
		defer conn.Close()
		c := offload.NewConn(conn)
		c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: "d"}})
		task := app.NewTask(testRng(0), 0)
		aid := offload.AID(app.Name(), app.CodeSize())
		c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
			AID: aid, App: task.App, Method: task.Method, Seq: task.Seq,
			Params: task.Params, ParamBytes: task.ParamBytes,
		}})
		close(inFlight)
		// The server is being closed under us; any outcome (result,
		// error, EOF) is acceptable — the point is that Close copes with
		// a handler mid-request.
		c.Recv()
	}()

	<-inFlight
	// The request is in the platform once its runtime starts booting.
	booting := srv.Metrics().Counter("lifecycle.edge.cold_booting")
	waitUntil(t, "the handler entering the platform", func() bool { return booting.Value() > 0 })

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(20 * time.Second):
		t.Fatal("Close did not return: in-flight handler drain hangs")
	}
	ln.Close() // the listener belongs to the caller; Accept unblocks now
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	<-clientDone
}

// TestServerCloseUnblocksAdmission pins the Close fix for pipelined
// connections: a reader parked on admission (window full of in-flight
// requests) is not blocked in a read, so closing the socket alone cannot
// unpark it. Close must return well inside the 15 s code-wait deadline
// that would otherwise be what frees the slot.
func TestServerCloseUnblocksAdmission(t *testing.T) {
	srv := NewServerOpts(core.DefaultConfig(core.KindRattrap), 200, nil, Options{PipelineDepth: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer ln.Close()
	parked := make(chan struct{})
	var once sync.Once
	srv.readerParked = func() { once.Do(func() { close(parked) }) }
	go srv.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	c := offload.NewConn(conn)
	if err := c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: "parked"}}); err != nil {
		t.Fatal(err)
	}
	// First request goes cold: the worker parks in its code wait, holding
	// the only admission slot.
	if err := c.Send(execFrame(chess, 0)); err != nil {
		t.Fatal(err)
	}
	if f, err := c.Recv(); err != nil || f.Kind != offload.KindNeedCode {
		t.Fatalf("expected NEED_CODE, got %v / %v", f.Kind, err)
	}
	// Second request parks the reader on admission.
	if err := c.Send(execFrame(chess, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the reader never parked on admission")
	}

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not unblock the admission-parked reader")
	}
}

// TestWriterFlushesBeforeTeardown: a fatal message tears the connection
// down only after the frames sent ahead of it, and its own farewell, have
// reached the device. A sender that is not last in line leaves its frame
// in the coalescing buffer; the farewell must flush it rather than close
// the socket over it, and a frame sent after the farewell is dropped.
func TestWriterFlushesBeforeTeardown(t *testing.T) {
	srv := NewServerOpts(core.DefaultConfig(core.KindRattrap), 200, nil, Options{})
	defer srv.Close()
	server, client := net.Pipe()
	defer client.Close()
	h := srv.newConnHandler(server)
	bye := farewell("realtime: expected exec, got hello")
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		h.senders.Add(1) // another sender in line: the first result stays buffered
		h.send(&outMsg{res: offload.Result{Seq: 1, Output: "first"}, isResult: true})
		h.send(&bye)
		h.send(&outMsg{res: offload.Result{Seq: 2, Output: "second"}, isResult: true})
		h.senders.Add(-1)
	}()

	c := offload.NewConn(client)
	f, err := c.Recv()
	if err != nil || f.Kind != offload.KindResult || f.Result.Seq != 1 {
		t.Fatalf("first frame: %+v, %v; want the result sent ahead of the farewell", f, err)
	}
	f, err = c.Recv()
	if err != nil || f.Kind != offload.KindResult || f.Result.Code != offload.CodeProtocol {
		t.Fatalf("second frame: %+v, %v; want the CodeProtocol farewell", f, err)
	}
	if f, err := c.Recv(); err == nil {
		t.Fatalf("frame %+v after the farewell, want the connection closed", f)
	}
	<-sent
	if h.err == nil {
		t.Fatal("the farewell left no error behind to end the connection with")
	}
}

// TestConcurrentSendsAllArrive: PipelineDepth workers reply at once, each
// on its own goroutine. Whoever is last in line flushes, so every reply
// reaches the device and nothing is left in the coalescing buffer once the
// senders are done: the device reads them all before the close.
func TestConcurrentSendsAllArrive(t *testing.T) {
	const depth, each = 4, 50
	srv := NewServerOpts(core.DefaultConfig(core.KindRattrap), 200, nil, Options{PipelineDepth: depth})
	defer srv.Close()
	server, client := net.Pipe()
	defer client.Close()
	h := srv.newConnHandler(server)

	got := make(chan map[int]bool, 1)
	go func() {
		seen := make(map[int]bool)
		c := offload.NewConn(client)
		for {
			f, err := c.Recv()
			if err != nil {
				got <- seen
				return
			}
			seen[f.Result.Seq] = true
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < srv.depth; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < each; i++ {
				h.send(&outMsg{res: offload.Result{Seq: w*each + i + 1}, isResult: true})
			}
		}(w)
	}
	workers.Wait()
	server.Close() // a frame still buffered now would never arrive
	seen := <-got
	for seq := 1; seq <= depth*each; seq++ {
		if !seen[seq] {
			t.Fatalf("%d of %d replies arrived; seq %d is missing", len(seen), depth*each, seq)
		}
	}
	if h.err != nil {
		t.Fatalf("send failed: %v", h.err)
	}
}

// TestTCPCodeWaitDeadline: on TCP a code wait ends on the wall clock — a
// virtual deadline would be over in microseconds at the benchmark's speed —
// or when the reader closes the connection, or when its frame is routed.
func TestTCPCodeWaitDeadline(t *testing.T) {
	w := &tcpPort{h: &connHandler{connDone: make(chan struct{})}}
	ch := make(chan codeMsg, 1)
	if _, err := w.waitCode(ch, time.Now().Add(-time.Second)); !errors.Is(err, errCodeTimeout) {
		t.Fatalf("past deadline: %v, want errCodeTimeout", err)
	}
	const wait = 20 * time.Millisecond
	start := time.Now()
	if _, err := w.waitCode(ch, start.Add(wait)); !errors.Is(err, errCodeTimeout) {
		t.Fatalf("expired wait: %v, want errCodeTimeout", err)
	}
	if el := time.Since(start); el < wait {
		t.Fatalf("a %v code wait ended after %v of wall time", wait, el)
	}
	ch <- codeMsg{push: offload.CodePush{Seq: 3}}
	if msg, err := w.waitCode(ch, time.Now().Add(time.Minute)); err != nil || msg.push.Seq != 3 {
		t.Fatalf("routed frame: %+v, %v", msg, err)
	}
	close(w.h.connDone)
	if _, err := w.waitCode(ch, time.Now().Add(time.Minute)); !errors.Is(err, errConnClosed) {
		t.Fatalf("closed connection: %v, want errConnClosed", err)
	}
}
