package realtime

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestDedupCacheConcurrentEviction hammers the idempotency window from
// many goroutines with far more keys than the cache holds, forcing the
// FIFO eviction path to run concurrently with lookups and overwrites.
// Run with -race; afterwards the cache must hold exactly its capacity
// and every surviving entry must map to its own payload.
func TestDedupCacheConcurrentEviction(t *testing.T) {
	const (
		capacity = 32
		writers  = 8
		keys     = 400 // per writer; ~100x the capacity in total
	)
	dc := newDedupCache(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := dedupKey{dev: fmt.Sprintf("dev%d", w), aid: "app", seq: i}
				want := fmt.Sprintf("dev%d/app/%d", w, i)
				dc.store(key, offload.Result{Output: want})
				// Immediate read-back may already be evicted by another
				// writer — but if present it must carry our payload.
				if r, ok := dc.lookup(key); ok && r.Output != want {
					t.Errorf("lookup(%v) returned %q", key, r.Output)
					return
				}
				// Re-store an older key: the overwrite path must not grow
				// the window past its capacity.
				if i > 0 {
					old := dedupKey{dev: key.dev, aid: "app", seq: i - 1}
					dc.store(old, offload.Result{Output: fmt.Sprintf("dev%d/app/%d", w, i-1)})
				}
			}
		}()
	}
	wg.Wait()

	dc.mu.Lock()
	defer dc.mu.Unlock()
	if len(dc.res) > capacity {
		t.Fatalf("window grew to %d entries, cap %d", len(dc.res), capacity)
	}
	// order is a ring: once the window is full, head is the oldest entry
	// and the walk wraps past the end of the slice.
	live := 0
	for i := 0; i < len(dc.order); i++ {
		key := dc.order[(dc.head+i)%len(dc.order)]
		r, ok := dc.res[key]
		if !ok {
			t.Fatalf("order entry %v missing from result map", key)
		}
		if want := fmt.Sprintf("%s/%s/%d", key.dev, key.aid, key.seq); r.Output != want {
			t.Fatalf("entry %v holds foreign payload %q", key, r.Output)
		}
		live++
	}
	if live != len(dc.res) {
		t.Fatalf("order tracks %d live keys, map holds %d", live, len(dc.res))
	}
}

// TestDedupCacheEvictsFIFO pins the eviction order: each store past the
// capacity evicts exactly the oldest surviving key, and re-storing a live
// key neither evicts anything nor renews the key's place in line.
func TestDedupCacheEvictsFIFO(t *testing.T) {
	const capacity = 8
	dc := newDedupCache(capacity)
	key := func(i int) dedupKey { return dedupKey{dev: "dev", aid: "app", seq: i} }
	for i := 0; i < 3*capacity; i++ {
		dc.store(key(i), offload.Result{Output: fmt.Sprint(i)})
		if i >= 2 {
			dc.store(key(i-2), offload.Result{Output: fmt.Sprint(i - 2)}) // overwrite, not an insert
		}
		oldest := i - capacity + 1
		if oldest < 0 {
			oldest = 0
		}
		for j := 0; j <= i; j++ {
			r, ok := dc.lookup(key(j))
			if want := j >= oldest; ok != want {
				t.Fatalf("after store %d: key %d present=%v, want %v", i, j, ok, want)
			}
			if ok && r.Output != fmt.Sprint(j) {
				t.Fatalf("after store %d: key %d holds %q", i, j, r.Output)
			}
		}
	}
}

// TestConcurrentAbortedPushesReuseSlots pins dispatcher slot reuse under
// client failure at the worst moment: many devices ask for the same cold
// application, are told NEED_CODE, and then vanish before pushing — while
// healthy devices race them for the same slots. Every abort must release
// its slot (via the read deadline) and every healthy device must still
// get a result; at the end no runtime may be left busy.
func TestConcurrentAbortedPushesReuseSlots(t *testing.T) {
	srv, ln := startServerOpts(t, Options{ReadTimeout: 200 * time.Millisecond})
	app, _ := workload.ByName(workload.NameChess)
	aid := offload.AID(app.Name(), app.CodeSize())

	const aborters = 6
	var abortWG sync.WaitGroup
	for i := 0; i < aborters; i++ {
		i := i
		abortWG.Add(1)
		go func() {
			defer abortWG.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("aborter %d dial: %v", i, err)
				return
			}
			c := offload.NewConn(conn)
			dev := fmt.Sprintf("aborter-%d", i)
			task := app.NewTask(testRng(i), i)
			if err := c.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: dev}}); err != nil {
				conn.Close()
				return
			}
			if err := c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
				DeviceID: dev, AID: aid, App: task.App, Method: task.Method,
				Seq: i, Params: task.Params, ParamBytes: task.ParamBytes,
			}}); err != nil {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			// Whether we were queued, told to push, or raced a concurrent
			// push to a result, hang up without completing the exchange.
			c.Recv()
			conn.Close()
		}()
	}

	const healthy = 4
	var healthyWG sync.WaitGroup
	errs := make([]error, healthy)
	for i := 0; i < healthy; i++ {
		i := i
		healthyWG.Add(1)
		go func() {
			defer healthyWG.Done()
			res, _ := runClient(t, ln.Addr().String(), fmt.Sprintf("healthy-%d", i), app, 100+i)
			if res.Err != "" || res.Output == "" {
				errs[i] = fmt.Errorf("healthy-%d: %+v", i, res)
			}
		}()
	}
	abortWG.Wait()
	healthyWG.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Aborted pushes must not pin slots: once the read deadlines fire,
	// every runtime returns to idle and a fresh device is served at once.
	cfg := srv.Cluster().Shard(0)
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
			t.Fatal("aborted pushes left runtimes busy past the read deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
	res, _ := runClient(t, ln.Addr().String(), "after-storm", app, 999)
	if res.Err != "" || res.Output == "" {
		t.Fatalf("request after abort storm failed: %+v", res)
	}
}
