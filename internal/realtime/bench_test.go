package realtime

import (
	"net"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/workload"
)

// benchClient drives warehouse-hit roundtrips over one loopback TCP
// connection, mirroring a device that re-offloads an app already staged
// in the App Warehouse.
type benchClient struct {
	conn   net.Conn
	c      *offload.Conn
	app    workload.App
	aid    string
	params []byte
}

func newBenchClient(b *testing.B, addr string) *benchClient {
	b.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	c := offload.NewConn(conn)
	if err := c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: "bench-dev"}}); err != nil {
		b.Fatal(err)
	}
	app, _ := workload.ByName(workload.NameLinpack)
	return &benchClient{
		conn: conn, c: c, app: app,
		aid:    offload.AID(app.Name(), app.CodeSize()),
		params: tinyParams(b),
	}
}

// linpackParams encodes an order-n Linpack system in the flat param
// format the zero-alloc path decodes.
func linpackParams(b *testing.B, n int) []byte {
	b.Helper()
	return workload.EncodeLinpackParams(7, n)
}

// tinyParams is a deliberately small system: the real factorization costs
// microseconds, so the measurement isolates dispatch latency instead of
// payload compute.
func tinyParams(b *testing.B) []byte { return linpackParams(b, 8) }

func (bc *benchClient) roundtrip(b *testing.B, seq int) {
	if err := bc.c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
		AID: bc.aid, App: bc.app.Name(), Method: "solve", Seq: seq,
		Params: bc.params, ParamBytes: 500,
	}}); err != nil {
		b.Fatal(err)
	}
	f, err := bc.c.Recv()
	if err != nil {
		b.Fatal(err)
	}
	if f.Kind == offload.KindNeedCode {
		if err := bc.c.Send(offload.Frame{Kind: offload.KindCode, Code: &offload.CodePush{
			AID: bc.aid, App: bc.app.Name(), Size: bc.app.CodeSize(),
		}}); err != nil {
			b.Fatal(err)
		}
		if f, err = bc.c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	if f.Kind != offload.KindResult {
		b.Fatalf("expected result, got %s", f.Kind)
	}
	if f.Result.Err != "" {
		b.Fatalf("cloud error: %s", f.Result.Err)
	}
}

// benchSpeed runs virtual time fast enough that the engine-side task cost
// is small and the measured number is dominated by dispatch latency.
const benchSpeed = 20000

// BenchmarkRealtimeRoundtrip measures a warehouse-hit exec request over
// loopback TCP.
func BenchmarkRealtimeRoundtrip(b *testing.B) {
	srv := NewServer(core.DefaultConfig(core.KindRattrap), benchSpeed, nil)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer ln.Close()

	bc := newBenchClient(b, ln.Addr().String())
	defer bc.conn.Close()
	bc.roundtrip(b, 0) // warm-up: boots the runtime and stages the code

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.roundtrip(b, i+1)
	}
	b.StopTimer()
	p50, p95, p99 := srv.Latency().Percentiles()
	b.ReportMetric(float64(p50.Microseconds()), "p50-us")
	b.ReportMetric(float64(p95.Microseconds()), "p95-us")
	b.ReportMetric(float64(p99.Microseconds()), "p99-us")
}

// The throughput benchmark wants a request whose *paced* virtual cost
// (the exec sleep, which overlapping requests share) dominates its
// serialized dispatch overhead, while the real factorization stays cheap:
// an order-64 system is ~0.15 s virtual but only ~80k real flops. At 200x
// (still well past the 100x floor) the paced portion is a few hundred µs
// of wall time — the window pipelining exists to overlap. At benchSpeed
// it would round to zero and every depth would measure only the
// serialized dispatch path.
const (
	throughputSpeed = 200
	throughputOrder = 64
)

func benchmarkThroughput(b *testing.B, depth int) {
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.IdleTimeout = 0
	srv := NewServerOpts(cfg, throughputSpeed, nil, Options{PipelineDepth: depth})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer ln.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())
	params := linpackParams(b, throughputOrder)
	pc := offload.NewPipelineClient(offload.NewConn(conn), depth,
		func(need offload.NeedCode) (offload.CodePush, error) {
			return offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}, nil
		},
		func(res offload.Result) {
			if res.Err != "" {
				b.Errorf("request %d: cloud error: %s", res.Seq, res.Err)
			}
		})
	if err := pc.Hello("bench-dev"); err != nil {
		b.Fatal(err)
	}
	submit := func(seq int) {
		if err := pc.Submit(offload.ExecRequest{
			AID: aid, App: app.Name(), Method: "solve", Seq: seq,
			Params: params, ParamBytes: 500,
		}); err != nil {
			b.Fatal(err)
		}
	}
	submit(0) // warm-up: boots the runtime and stages the code
	if err := pc.Flush(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		submit(i + 1)
	}
	if err := pc.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
}

// BenchmarkServerThroughput measures closed-loop requests/sec over one
// connection: serial (depth 1) versus pipelined (depth 8). Pipelining
// overlaps the dispatch injections and wire I/O of up to 8 requests, so
// depth 8 should sustain a multiple of the serial request rate.
func BenchmarkServerThroughput(b *testing.B) {
	b.Run("depth1", func(b *testing.B) { benchmarkThroughput(b, 1) })
	b.Run("depth8", func(b *testing.B) { benchmarkThroughput(b, 8) })
}
