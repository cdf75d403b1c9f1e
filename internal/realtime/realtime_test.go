package realtime

import (
	"log"
	"math/rand"
	"net"
	"strings"
	"testing"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/workload"
)

const (
	chess   = workload.NameChess
	linpack = workload.NameLinpack
)

func testRng(seq int) *rand.Rand { return rand.New(rand.NewSource(int64(seq + 1))) }

// execFrame is the exec frame of app's task number seq, under the app's own
// AID.
func execFrame(appName string, seq int) offload.Frame {
	app, _ := workload.ByName(appName)
	task := app.NewTask(testRng(seq), seq)
	return offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
		AID: offload.AID(app.Name(), app.CodeSize()), App: task.App, Method: task.Method,
		Seq: task.Seq, Params: task.Params, ParamBytes: task.ParamBytes,
		FileBytes: task.FileBytes, RoundTrips: task.RoundTrips, InteractBytes: task.InteractBytes,
	}}
}

// codeFrame is app's full code push for aid, routed to seq.
func codeFrame(aid, appName string, seq int) offload.Frame {
	app, _ := workload.ByName(appName)
	return offload.Frame{Kind: offload.KindCode, Code: &offload.CodePush{
		AID: aid, App: app.Name(), Size: app.CodeSize(), Seq: seq,
	}}
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
	exec := execFrame(app.Name(), seq)
	if err := c.Send(exec); err != nil {
		t.Fatal(err)
	}
	f, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	neededCode := false
	if f.Kind == offload.KindNeedCode {
		neededCode = true
		if err := c.Send(codeFrame(exec.Exec.AID, app.Name(), 0)); err != nil {
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

func TestServerEndToEndOverTCP(t *testing.T) {
	cfg := core.DefaultConfig(core.KindRattrap)
	srv := NewServerOpts(cfg, 200, log.New(testWriter{t}, "rattrapd: ", 0), Options{}) // 200x time for a fast boot
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

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestServerRecordsLatency: every exec request lands one observation in
// the server's latency histogram.
func TestServerRecordsLatency(t *testing.T) {
	srv := NewServerOpts(core.DefaultConfig(core.KindRattrap), 500, nil, Options{})
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
