package realtime

import (
	"log"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

func TestDriverPacesVirtualTime(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewDriver(e, 50) // 50x so the test stays fast
	d.Start()
	defer d.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Do("sleeper", func(p *sim.Proc) {
			p.Sleep(500 * time.Millisecond) // 10ms wall at 50x
		})
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("paced proc never completed")
	}
	if d.Now() < sim.Time(500*time.Millisecond) {
		t.Fatalf("virtual clock %v did not reach the sleep end", d.Now())
	}
}

func TestDriverDoRunsInOrder(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewDriver(e, 100)
	d.Start()
	defer d.Stop()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		d.Do("step", func(p *sim.Proc) { got = append(got, i) })
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("Do calls out of order: %v", got)
		}
	}
}

// runClient drives one full offload exchange against addr.
func runClient(t *testing.T, addr, deviceID string, app workload.App, seq int) (offload.Result, bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := offload.NewConn(conn)
	if err := c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: deviceID}}); err != nil {
		t.Fatal(err)
	}
	task := app.NewTask(testRng(seq), seq)
	aid := offload.AID(app.Name(), app.CodeSize())
	req := offload.ExecRequest{
		DeviceID: deviceID, AID: aid, App: task.App, Method: task.Method,
		Seq: task.Seq, Params: task.Params, ParamBytes: task.ParamBytes,
		FileBytes: task.FileBytes, RoundTrips: task.RoundTrips, InteractBytes: task.InteractBytes,
	}
	if err := c.Send(offload.Frame{Kind: offload.KindExec, Exec: &req}); err != nil {
		t.Fatal(err)
	}
	f, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	neededCode := false
	if f.Kind == offload.KindNeedCode {
		neededCode = true
		if err := c.Send(offload.Frame{Kind: offload.KindCode, Code: &offload.CodePush{
			AID: aid, App: app.Name(), Size: app.CodeSize(),
		}}); err != nil {
			t.Fatal(err)
		}
		f, err = c.Recv()
		if err != nil {
			t.Fatal(err)
		}
	}
	if f.Kind != offload.KindResult {
		t.Fatalf("expected result, got %s", f.Kind)
	}
	return *f.Result, neededCode
}

func testRng(seq int) *rand.Rand { return rand.New(rand.NewSource(int64(seq + 1))) }

func TestServerEndToEndOverTCP(t *testing.T) {
	cfg := core.DefaultConfig(core.KindRattrap)
	srv := NewServer(cfg, 200, log.New(testWriter{t}, "rattrapd: ", 0)) // 200x time for a fast boot
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer ln.Close()

	app, _ := workload.ByName(workload.NameLinpack)
	res, needed := runClient(t, ln.Addr().String(), "phone-1", app, 0)
	if res.Err != "" {
		t.Fatalf("cloud error: %s", res.Err)
	}
	if !needed {
		t.Fatal("first request should transfer code")
	}
	if !strings.Contains(res.Output, "residual=") {
		t.Fatalf("output = %q", res.Output)
	}
	// Second request from another device: the code is already on the
	// platform (warehouse + affinity), so no duplicate transfer.
	res, needed = runClient(t, ln.Addr().String(), "phone-2", app, 1)
	if res.Err != "" || res.Output == "" {
		t.Fatalf("second request: %+v", res)
	}
	if needed {
		t.Fatal("second request re-transferred code despite the warehouse")
	}
	if entries, _, _ := srv.Cluster().Shard(0).Warehouse().Stats(); entries != 1 {
		t.Fatalf("warehouse entries=%d, want 1", entries)
	}
}

func TestServerRejectsProtocolViolations(t *testing.T) {
	srv := NewServer(core.DefaultConfig(core.KindRattrap), 200, nil)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer ln.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := offload.NewConn(conn)
	// Exec before Hello: the server must explain the violation in an
	// error Result frame, then drop the connection.
	app, _ := workload.ByName(workload.NameChess)
	task := app.NewTask(testRng(0), 0)
	c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
		AID: "x", App: task.App, Method: task.Method, Params: task.Params,
	}})
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := c.Recv()
	if err != nil {
		t.Fatalf("expected a protocol-error result frame, got %v", err)
	}
	if f.Kind != offload.KindResult || f.Result.Code != offload.CodeProtocol || f.Result.Err == "" {
		t.Fatalf("violation reply = %+v, want a CodeProtocol result", f)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("server kept the connection open after a protocol violation")
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestServerCloseDrainsInflightHandlers: Close must wait for connection
// handlers that are mid-request (inside driver injections) before it
// stops the driver — otherwise the handler's deferred release would race
// a dead driver.
func TestServerCloseDrainsInflightHandlers(t *testing.T) {
	srv := NewServer(core.DefaultConfig(core.KindRattrap), 200, nil)
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
	time.Sleep(3 * time.Millisecond) // let the handler enter the platform

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

// TestServerRecordsLatency: every exec request lands one observation in
// the server's latency histogram.
func TestServerRecordsLatency(t *testing.T) {
	srv := NewServer(core.DefaultConfig(core.KindRattrap), 500, nil)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer ln.Close()

	app, _ := workload.ByName(workload.NameLinpack)
	for i := 0; i < 3; i++ {
		if res, _ := runClient(t, ln.Addr().String(), "phone-1", app, i); res.Err != "" {
			t.Fatalf("request %d: %s", i, res.Err)
		}
	}
	h := srv.Latency()
	if n := waitLatencyCount(srv, 3); n != 3 {
		t.Fatalf("latency observations = %d, want 3", n)
	}
	if h.Quantile(0.5) <= 0 || h.Max() <= 0 {
		t.Fatalf("degenerate histogram: %s", h)
	}
}
