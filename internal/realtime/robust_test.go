package realtime

import (
	"net"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

func startServerOpts(t *testing.T, opts Options) (*Server, net.Listener) {
	t.Helper()
	srv := NewServerOpts(core.DefaultConfig(core.KindRattrap), 200, nil, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	return srv, ln
}

// waitLatencyCount returns the server's latency-observation count once it
// has reached want, or after a deadline if it never does. The connection
// writer observes a request's latency (and counts its result) just *after*
// flushing the result frame, so a client can have its reply in hand before
// the count moves; a test asserting an exact count right behind a client
// must wait for it here instead of reading it directly.
func waitLatencyCount(srv *Server, want int64) int64 {
	deadline := time.Now().Add(5 * time.Second)
	for srv.Latency().Count() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return srv.Latency().Count()
}

// TestSlowLorisReleasesSlot pins the tentpole's deadline behavior: a
// device that asks for a slot, is told to push code, and then goes silent
// must be cut off by the read deadline and its runtime slot released —
// other devices keep being served instead of queueing behind a corpse.
func TestSlowLorisReleasesSlot(t *testing.T) {
	srv, ln := startServerOpts(t, Options{ReadTimeout: 300 * time.Millisecond})
	cfg := srv.Cluster().Shard(0) // MaxRuntimes is the default (>1); the stall pins one slot

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := offload.NewConn(conn)
	app, _ := workload.ByName(workload.NameChess)
	task := app.NewTask(testRng(0), 0)
	aid := offload.AID(app.Name(), app.CodeSize())
	if err := c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: "loris"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
		DeviceID: "loris", AID: aid, App: task.App, Method: task.Method,
		Params: task.Params, ParamBytes: task.ParamBytes,
	}}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := c.Recv()
	if err != nil || f.Kind != offload.KindNeedCode {
		t.Fatalf("expected NEED_CODE, got %v / %v", f.Kind, err)
	}
	// Go silent: never push the code. The server must hit its read
	// deadline and release the pinned slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		busy := false
		srv.Driver().Do("probe", func(p *sim.Proc) {
			for _, r := range cfg.DB().List() {
				busy = busy || r.Busy
			}
		})
		if !busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled device still pins a busy runtime after the read deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The latency histogram must not have recorded the aborted request:
	// no result frame was produced.
	if n := srv.Latency().Count(); n != 0 {
		t.Fatalf("latency observations = %d for a request that produced no result", n)
	}
	// A healthy device is served normally afterwards.
	res, _ := runClient(t, ln.Addr().String(), "healthy", app, 1)
	if res.Err != "" || res.Output == "" {
		t.Fatalf("healthy request after loris cleanup: %+v", res)
	}
	if n := waitLatencyCount(srv, 1); n != 1 {
		t.Fatalf("latency observations = %d, want exactly the healthy request", n)
	}
}

// TestIdempotentRetryDoesNotReExecute pins the retry-safety contract: a
// second exec frame with the same (DeviceID, AID, Seq) — a client retry
// after a lost reply — is answered from the dedup window without running
// the workload again.
func TestIdempotentRetryDoesNotReExecute(t *testing.T) {
	srv, ln := startServerOpts(t, Options{})
	app, _ := workload.ByName(workload.NameLinpack)

	res1, _ := runClient(t, ln.Addr().String(), "phone-r", app, 0)
	if res1.Err != "" || res1.Output == "" {
		t.Fatalf("first attempt: %+v", res1)
	}
	execs := srv.Cluster().Shard(0).DB().Snapshot().TotalExec

	// Same device, same seq — as a retry would send after a lost reply
	// (fresh connection, like a client reconnecting after a fault).
	res2, needed := runClient(t, ln.Addr().String(), "phone-r", app, 0)
	if needed {
		t.Fatal("retry was asked to re-push code")
	}
	if res2.Output != res1.Output || res2.ResultBytes != res1.ResultBytes {
		t.Fatalf("retry result %+v differs from original %+v", res2, res1)
	}
	if after := srv.Cluster().Shard(0).DB().Snapshot().TotalExec; after != execs {
		t.Fatalf("retry re-executed: %d -> %d executions", execs, after)
	}

	// A genuinely new sequence number still executes.
	res3, _ := runClient(t, ln.Addr().String(), "phone-r", app, 1)
	if res3.Err != "" {
		t.Fatalf("new seq: %+v", res3)
	}
	if after := srv.Cluster().Shard(0).DB().Snapshot().TotalExec; after != execs+1 {
		t.Fatalf("new seq executions = %d, want %d", after, execs+1)
	}
}

// TestDedupCacheEviction pins the window's FIFO bound.
func TestDedupCacheEviction(t *testing.T) {
	key := func(dev string) dedupKey { return dedupKey{dev: dev, aid: "app", seq: 0} }
	dc := newDedupCache(2)
	dc.store(key("a"), offload.Result{Output: "a"})
	dc.store(key("b"), offload.Result{Output: "b"})
	dc.store(key("c"), offload.Result{Output: "c"}) // evicts a
	if _, ok := dc.lookup(key("a")); ok {
		t.Fatal("oldest entry not evicted")
	}
	for _, k := range []string{"b", "c"} {
		if r, ok := dc.lookup(key(k)); !ok || r.Output != k {
			t.Fatalf("entry %q missing after eviction", k)
		}
	}
	dc.store(key("b"), offload.Result{Output: "b2"}) // overwrite, no growth
	if r, _ := dc.lookup(key("b")); r.Output != "b2" {
		t.Fatal("overwrite did not take")
	}
	var nilCache *dedupCache
	nilCache.store(key("x"), offload.Result{})
	if _, ok := nilCache.lookup(key("x")); ok {
		t.Fatal("nil cache should be inert")
	}
}

// TestDedupZeroAlloc gates the idempotency window's hot path: lookup
// (hit and miss) and store — including the at-capacity eviction path —
// must not allocate.
func TestDedupZeroAlloc(t *testing.T) {
	const capacity = 64
	dc := newDedupCache(capacity)
	// Fill to capacity so store exercises FIFO eviction, its steady state
	// on a busy server.
	for i := 0; i < capacity; i++ {
		dc.store(dedupKey{dev: "phone", aid: "app", seq: i}, offload.Result{Output: "x", Seq: i})
	}
	seq := capacity
	if avg := testing.AllocsPerRun(500, func() {
		dc.store(dedupKey{dev: "phone", aid: "app", seq: seq}, offload.Result{Output: "x", Seq: seq})
		seq++
	}); avg != 0 {
		t.Fatalf("store at capacity allocates %.1f times per op, want 0", avg)
	}
	hit := dedupKey{dev: "phone", aid: "app", seq: seq - 1}
	miss := dedupKey{dev: "phone", aid: "app", seq: -1}
	if avg := testing.AllocsPerRun(500, func() {
		dc.lookup(hit)
		dc.lookup(miss)
	}); avg != 0 {
		t.Fatalf("lookup allocates %.1f times per op, want 0", avg)
	}
}

// TestOptionsDefaults pins the zero/negative semantics.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ReadTimeout != 15*time.Second || o.WriteTimeout != 15*time.Second {
		t.Fatalf("default read/write timeouts: %+v", o)
	}
	if o.RequestTimeout != 2*time.Minute || o.IdleTimeout != 0 {
		t.Fatalf("default request/idle timeouts: %+v", o)
	}
	if o.MaxFrame != offload.DefaultMaxFrame || o.DedupWindow != 256 {
		t.Fatalf("default frame/dedup: %+v", o)
	}
	if o.PipelineDepth != 1 {
		t.Fatalf("default pipeline depth: %+v", o)
	}
	d := Options{ReadTimeout: -1, WriteTimeout: -1, RequestTimeout: -1, IdleTimeout: -1, PipelineDepth: -3}.withDefaults()
	if d.ReadTimeout != 0 || d.WriteTimeout != 0 || d.RequestTimeout != 0 || d.IdleTimeout != 0 {
		t.Fatalf("negative should disable: %+v", d)
	}
	if d.PipelineDepth != 1 {
		t.Fatalf("negative pipeline depth should clamp to 1: %+v", d)
	}
}
