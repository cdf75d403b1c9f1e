package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/realtime"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// lossyConn loses the first reply after the client sent everything it had:
// Read waits for the server's bytes — so the server has answered, and stored
// the answer in its dedup window — then drops them and reports a cut
// connection.
type lossyConn struct{ net.Conn }

func (c lossyConn) Read(b []byte) (int, error) {
	if _, err := c.Conn.Read(b); err != nil {
		return 0, err
	}
	c.Conn.Close()
	return 0, io.ErrUnexpectedEOF
}

// TestRetryAnswersFromDedupWindow drives the client's retry wrapper against
// an in-process server whose second connection is cut after the exec frames
// went out: the client re-dials and resubmits the same Seqs, at any depth.
// At depth 1 the lost reply is the request's result, which the server then
// answers from its idempotency window without executing a second time.
func TestRetryAnswersFromDedupWindow(t *testing.T) {
	for _, depth := range []int{1, 4} {
		srv := realtime.NewServerOpts(core.DefaultConfig(core.KindRattrap), 200, nil, realtime.Options{PipelineDepth: depth})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close(); ln.Close() })

		app, _ := workload.ByName(workload.NameLinpack)
		rng := rand.New(rand.NewSource(1))
		var dials atomic.Int32
		var out bytes.Buffer
		o := &offloader{
			dial: func() (net.Conn, error) {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err == nil && dials.Add(1) == 2 {
					return lossyConn{conn}, nil
				}
				return conn, err
			},
			deviceID: "phone-t",
			depth:    depth,
			policy:   offload.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}.WithDefaults(),
			rng:      rng,
			code:     offload.CodePush{AID: offload.AID(app.Name(), app.CodeSize()), App: app.Name(), Size: app.CodeSize()},
			out:      &out,
		}
		requests := func(from, to int) (reqs []offload.ExecRequest) {
			for seq := from; seq < to; seq++ {
				reqs = append(reqs, offload.NewExecRequest(o.deviceID, app.NewTask(rng, seq), app.CodeSize()))
			}
			return reqs
		}
		executed := func() (n int) {
			srv.Driver().Do("census", func(*sim.Proc) { n = srv.Cluster().Shard(0).DB().Snapshot().TotalExec })
			return n
		}

		// Connection 1 stages the code, so on connection 2 every request is
		// one exec frame and one result frame.
		if err := o.run(requests(0, 1)); err != nil {
			t.Fatal(err)
		}
		before := executed()
		if err := o.run(requests(1, 1+2*depth)); err != nil {
			t.Fatal(err)
		}
		if got := dials.Load(); got != 3 {
			t.Errorf("depth %d: dials = %d, want 3 (one re-dial)", depth, got)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 1+2*depth || !strings.Contains(lines[0], "(mobile code transferred)") {
			t.Errorf("depth %d: output:\n%s", depth, out.String())
		}
		for seq := 1; seq <= 2*depth; seq++ {
			if n := strings.Count(out.String(), fmt.Sprintf("req %d: ", seq)); n != 1 {
				t.Errorf("depth %d: req %d answered %d times:\n%s", depth, seq, n, out.String())
			}
		}
		if depth == 1 {
			if got := executed() - before; got != 2 {
				t.Errorf("requests 1 and 2 executed %d times, want once each", got)
			}
			if !strings.Contains(lines[1], "req 1: ") || !strings.Contains(lines[1], "(2 attempts) -> n=") {
				t.Errorf("req 1 not reported as retried:\n%s", out.String())
			}
		}
	}
}
