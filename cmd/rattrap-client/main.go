// Command rattrap-client is a mobile-device emulator: it connects to a
// rattrapd server, offloads requests for one of the benchmark apps, and
// prints results with timings. The first request of an app transfers the
// mobile code; later requests hit the App Warehouse.
//
// Requests are retried with exponential backoff and jitter on transport
// failures and overload rejections. Retries are safe: the server dedupes
// on (device, AID, seq), so a request whose result was computed but lost
// in transit is answered from the server's idempotency window instead of
// being re-executed.
//
// With -pipeline N the client keeps up to N requests in flight on one
// connection; the server executes them concurrently and results come back
// in completion order, matched by sequence number. The server must be
// running with a pipeline depth of at least N. Retries are not attempted
// in pipelined mode.
//
// Usage:
//
//	rattrap-client [-server localhost:7431] [-app Linpack] [-n 3] [-device phone-1] [-seed 1] [-retries 4] [-pipeline 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"time"

	"rattrap/internal/offload"
	"rattrap/internal/workload"
)

// client wraps one connection to the server, re-dialing on demand after
// a transport failure invalidated the previous one.
type client struct {
	server   string
	deviceID string
	conn     net.Conn
	c        *offload.Conn
}

func (cl *client) connect() error {
	if cl.c != nil {
		return nil
	}
	conn, err := net.Dial("tcp", cl.server)
	if err != nil {
		return err
	}
	c := offload.NewConn(conn)
	if err := c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: cl.deviceID}}); err != nil {
		conn.Close()
		return fmt.Errorf("hello: %w", err)
	}
	cl.conn, cl.c = conn, c
	return nil
}

func (cl *client) drop() {
	if cl.conn != nil {
		cl.conn.Close()
	}
	cl.conn, cl.c = nil, nil
}

// attempt runs one request exchange. A non-nil error is a transport or
// protocol failure: the connection is dropped and the caller may retry.
func (cl *client) attempt(req offload.ExecRequest, app workload.App) (res offload.Result, pushed bool, err error) {
	if err := cl.connect(); err != nil {
		return res, false, err
	}
	fail := func(err error) (offload.Result, bool, error) {
		cl.drop()
		return offload.Result{}, pushed, err
	}
	if err := cl.c.Send(offload.Frame{Kind: offload.KindExec, Exec: &req}); err != nil {
		return fail(fmt.Errorf("exec: %w", err))
	}
	f, err := cl.c.Recv()
	if err != nil {
		return fail(fmt.Errorf("recv: %w", err))
	}
	for f.Kind == offload.KindNeedCode {
		pushed = true
		if err := cl.c.Send(offload.Frame{Kind: offload.KindCode, Code: &offload.CodePush{
			AID: req.AID, App: app.Name(), Size: app.CodeSize(),
		}}); err != nil {
			return fail(fmt.Errorf("code push: %w", err))
		}
		if f, err = cl.c.Recv(); err != nil {
			return fail(fmt.Errorf("recv: %w", err))
		}
	}
	if f.Kind != offload.KindResult {
		return fail(fmt.Errorf("unexpected frame %s", f.Kind))
	}
	return *f.Result, pushed, nil
}

// backoff is the delay before retry number attempt (1-based): base
// doubled per attempt, capped, with ±25% jitter; an overload rejection's
// retry-after hint sets the floor.
func backoff(rng *rand.Rand, base, cap time.Duration, attempt int, retryAfter time.Duration) time.Duration {
	d := base << uint(attempt-1)
	if d > cap || d <= 0 {
		d = cap
	}
	d += time.Duration(float64(d) * 0.25 * (2*rng.Float64() - 1))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// runPipelined offloads n requests with up to depth in flight on one
// connection. Results print in completion order; per-request latency is
// measured from its submit.
func runPipelined(server, deviceID string, app workload.App, n, depth int, seed int64) error {
	conn, err := net.Dial("tcp", server)
	if err != nil {
		return err
	}
	defer conn.Close()
	aid := offload.AID(app.Name(), app.CodeSize())
	submitted := make(map[int]time.Time, depth)
	pc := offload.NewPipelineClient(offload.NewConn(conn), depth,
		func(need offload.NeedCode) (offload.CodePush, error) {
			return offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}, nil
		},
		func(res offload.Result) {
			elapsed := time.Since(submitted[res.Seq]).Round(time.Millisecond)
			delete(submitted, res.Seq)
			if res.Err != "" {
				fmt.Printf("req %d: ERROR after %v: %s\n", res.Seq, elapsed, res.Err)
				return
			}
			fmt.Printf("req %d: %v -> %s\n", res.Seq, elapsed, res.Output)
		})
	if err := pc.Hello(deviceID); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		task := app.NewTask(rng, i)
		req := offload.ExecRequest{
			DeviceID: deviceID, AID: aid, App: task.App, Method: task.Method,
			Seq: task.Seq, Params: task.Params, ParamBytes: task.ParamBytes,
			FileBytes: task.FileBytes, RoundTrips: task.RoundTrips, InteractBytes: task.InteractBytes,
		}
		submitted[req.Seq] = time.Now()
		if err := pc.Submit(req); err != nil {
			return fmt.Errorf("req %d: %w", i, err)
		}
	}
	return pc.Flush()
}

func main() {
	server := flag.String("server", "localhost:7431", "rattrapd address")
	appName := flag.String("app", workload.NameLinpack, "workload: OCR, ChessGame, VirusScan or Linpack")
	n := flag.Int("n", 3, "number of offloading requests")
	deviceID := flag.String("device", "phone-1", "device identifier")
	seed := flag.Int64("seed", 1, "task generator seed")
	retries := flag.Int("retries", 4, "max attempts per request (1 disables retrying)")
	retryBase := flag.Duration("retry-base", 200*time.Millisecond, "initial retry backoff")
	pipeline := flag.Int("pipeline", 1, "requests to keep in flight on one connection (1 = serial)")
	flag.Parse()
	if *retries < 1 {
		*retries = 1
	}
	app, err := workload.ByName(*appName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rattrap-client: %v\n", err)
		os.Exit(2)
	}
	if *pipeline > 1 {
		if err := runPipelined(*server, *deviceID, app, *n, *pipeline, *seed); err != nil {
			log.Fatalf("rattrap-client: %v", err)
		}
		return
	}
	cl := &client{server: *server, deviceID: *deviceID}
	if err := cl.connect(); err != nil {
		log.Fatalf("rattrap-client: %v", err)
	}
	defer cl.drop()

	rng := rand.New(rand.NewSource(*seed))
	aid := offload.AID(app.Name(), app.CodeSize())
	for i := 0; i < *n; i++ {
		task := app.NewTask(rng, i)
		req := offload.ExecRequest{
			DeviceID: *deviceID, AID: aid, App: task.App, Method: task.Method,
			Seq: task.Seq, Params: task.Params, ParamBytes: task.ParamBytes,
			FileBytes: task.FileBytes, RoundTrips: task.RoundTrips, InteractBytes: task.InteractBytes,
		}
		start := time.Now()
		var res offload.Result
		var pushed bool
		attempt := 1
		for ; ; attempt++ {
			var aerr error
			res, pushed, aerr = cl.attempt(req, app)
			retryAfter := time.Duration(0)
			switch {
			case aerr == nil && res.Code == offload.CodeOverloaded:
				retryAfter = res.RetryAfter()
			case aerr == nil:
				// A result (success or permanent error): done.
			default:
				fmt.Fprintf(os.Stderr, "rattrap-client: req %d attempt %d: %v\n", i, attempt, aerr)
			}
			if aerr == nil && res.Code != offload.CodeOverloaded {
				break
			}
			if attempt >= *retries {
				if aerr != nil {
					log.Fatalf("rattrap-client: req %d failed after %d attempts: %v", i, attempt, aerr)
				}
				break // overloaded on the last attempt: report the rejection
			}
			time.Sleep(backoff(rng, *retryBase, 5*time.Second, attempt, retryAfter))
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if res.Err != "" {
			fmt.Printf("req %d: ERROR after %v (%d attempts): %s\n", i, elapsed, attempt, res.Err)
			continue
		}
		note := ""
		if pushed {
			note = " (mobile code transferred)"
		}
		if attempt > 1 {
			note += fmt.Sprintf(" (%d attempts)", attempt)
		}
		fmt.Printf("req %d: %v%s -> %s\n", i, elapsed, note, res.Output)
	}
}
