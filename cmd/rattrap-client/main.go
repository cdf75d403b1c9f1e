// Command rattrap-client is a mobile-device emulator: it connects to a
// rattrapd server, offloads requests for one of the benchmark apps, and
// prints results with timings. The first request of an app transfers the
// mobile code; later requests hit the App Warehouse.
//
// There is one request path. The client keeps up to -pipeline requests in
// flight on one connection (1, the default, is serial); the server executes
// them concurrently and results come back in completion order, matched by
// sequence number. The server must be running with a pipeline depth of at
// least -pipeline.
//
// When the connection fails or the server sheds a request, the client backs
// off (exponentially, with jitter, no shorter than the server's retry-after
// hint), re-dials and resubmits whatever is unanswered, at any depth.
// Retries are safe: the server dedupes on (device, AID, seq), so a request
// whose result was computed but lost in transit is answered from the
// server's idempotency window instead of being re-executed.
//
// Usage:
//
//	rattrap-client [-server localhost:7431] [-app Linpack] [-n 3] [-device phone-1] [-seed 1] [-retries 4] [-pipeline 8]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"time"

	"rattrap/internal/offload"
	"rattrap/internal/workload"
)

// offloader is the device side of the exchange over TCP: an
// offload.PipelineClient per connection, wrapped by the retry loop.
type offloader struct {
	dial     func() (net.Conn, error)
	deviceID string
	depth    int
	policy   offload.RetryPolicy
	rng      *rand.Rand // backoff jitter
	code     offload.CodePush
	out      io.Writer
}

// call is one request until its final result.
type call struct {
	req      offload.ExecRequest
	start    time.Time // first put on the wire
	attempts int
	pushed   bool // the cloud asked this request for the code
}

// run offloads reqs, which must carry distinct Seqs, printing each result
// as it arrives. It gives up when a request fails permanently or has used
// all its attempts.
func (o *offloader) run(reqs []offload.ExecRequest) error {
	todo := make([]*call, len(reqs))
	for i, req := range reqs {
		todo[i] = &call{req: req}
	}
	for len(todo) > 0 {
		var cause error
		if todo, cause = o.pass(todo); len(todo) == 0 {
			break
		}
		worst := todo[0]
		for _, c := range todo {
			if c.attempts > worst.attempts {
				worst = c
			}
		}
		delay, ok := o.policy.Backoff(worst.attempts, cause, o.rng)
		if !ok {
			return fmt.Errorf("req %d failed after %d attempts: %w", worst.req.Seq, worst.attempts, cause)
		}
		fmt.Fprintf(os.Stderr, "rattrap-client: %v; resubmitting %d requests in %v\n", cause, len(todo), delay.Round(time.Millisecond))
		time.Sleep(delay)
	}
	return nil
}

// pass submits todo in order on one fresh connection and waits for the
// results, submitting nothing further once the cloud shed a request. It
// returns the calls still unanswered and why: the connection's error, or
// the overload rejection of a request with attempts to spare. A request's
// attempt is spent when it is submitted; a connection that fails before any
// was, spends one of the first's.
func (o *offloader) pass(todo []*call) (left []*call, cause error) {
	open := make(map[int]*call, len(todo))
	for _, c := range todo {
		open[c.req.Seq] = c
	}
	var shed error
	sent := 0
	conn, err := o.dial()
	if err == nil {
		defer conn.Close()
		pc := offload.NewPipelineClient(offload.NewConn(conn), o.depth,
			func(need offload.NeedCode) (offload.CodePush, error) {
				if c := open[need.Seq]; c != nil {
					c.pushed = true
				}
				return o.code, nil
			},
			func(res offload.Result) {
				c := open[res.Seq]
				if res.Code == offload.CodeOverloaded && c.attempts < o.policy.MaxAttempts {
					shed = &offload.OverloadedError{RetryAfter: res.RetryAfter()}
					return
				}
				delete(open, res.Seq)
				o.report(c, res)
			})
		err = pc.Hello(o.deviceID)
		for ; err == nil && shed == nil && sent < len(todo); sent++ {
			c := todo[sent]
			c.attempts++
			// Submit first waits for room in the window; the request's clock
			// starts once it is on the wire.
			if err = pc.Submit(c.req); c.start.IsZero() {
				c.start = time.Now()
			}
		}
		if err == nil {
			err = pc.Flush()
		}
	}
	if sent == 0 {
		todo[0].attempts++
	}
	if err == nil {
		err = shed
	}
	for _, c := range todo {
		if open[c.req.Seq] == c {
			left = append(left, c)
		}
	}
	return left, err
}

func (o *offloader) report(c *call, res offload.Result) {
	elapsed := time.Since(c.start).Round(time.Millisecond)
	if res.Err != "" {
		fmt.Fprintf(o.out, "req %d: ERROR after %v (%d attempts): %s\n", res.Seq, elapsed, c.attempts, res.Err)
		return
	}
	note := ""
	if c.pushed {
		note = " (mobile code transferred)"
	}
	if c.attempts > 1 {
		note += fmt.Sprintf(" (%d attempts)", c.attempts)
	}
	fmt.Fprintf(o.out, "req %d: %v%s -> %s\n", res.Seq, elapsed, note, res.Output)
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
	rng := rand.New(rand.NewSource(*seed))
	reqs := make([]offload.ExecRequest, max(*n, 0))
	for i := range reqs {
		reqs[i] = offload.NewExecRequest(*deviceID, app.NewTask(rng, i), app.CodeSize())
	}
	o := &offloader{
		dial:     func() (net.Conn, error) { return net.Dial("tcp", *server) },
		deviceID: *deviceID,
		depth:    *pipeline,
		policy:   offload.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase}.WithDefaults(),
		rng:      rng,
		code:     offload.CodePush{AID: offload.AID(app.Name(), app.CodeSize()), App: app.Name(), Size: app.CodeSize()},
		out:      os.Stdout,
	}
	if err := o.run(reqs); err != nil {
		log.Fatalf("rattrap-client: %v", err)
	}
}
