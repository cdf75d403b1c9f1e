package realtime

import (
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
)

// TestSlowLorisReleasesSlot pins the read deadline: a device that asks for
// a slot, is told to push code, and then goes silent is cut off exactly
// readTimeout later, without a farewell (a client retries a lost
// connection), and its runtime slot is released: other devices keep being
// served instead of queueing behind a corpse.
func TestSlowLorisReleasesSlot(t *testing.T) {
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 1)
	pl := s.pr.cl.Shard(0)
	var needAt, cutAt sim.Time
	s.at(0, "loris", func(p *sim.Proc) {
		d := s.connect(p, "loris")
		defer d.hangUp()
		d.send(execFrame(chess, 0))
		if f, err := d.recv(); err != nil || f.Kind != offload.KindNeedCode {
			t.Errorf("expected NEED_CODE, got %v / %v", f.Kind, err)
			return
		}
		needAt = p.E.Now()
		// Go silent: never push the code.
		if f, err := d.recv(); err == nil {
			t.Errorf("got %+v, want the connection closed at the read deadline", f)
		}
		cutAt = p.E.Now()
	})
	s.at(readTimeout+5*time.Second, "healthy", func(p *sim.Proc) {
		if n := pl.DB().StateCount(core.LifecycleActive); n != 0 {
			t.Errorf("%d runtimes still claimed after the loris was cut off", n)
		}
		// No result frame was produced for the aborted request.
		if n := s.pr.lat.Count(); n != 0 {
			t.Errorf("latency observations = %d for a request that produced no result", n)
		}
		d := s.connect(p, "healthy")
		defer d.hangUp()
		if res, _, err := d.offload(chess, 1); err != nil || res.Err != "" || res.Output == "" {
			t.Errorf("healthy request after loris cleanup: %+v, %v", res, err)
		}
	})
	s.run()
	if got := cutAt - needAt; got != sim.Time(readTimeout) {
		t.Fatalf("silent device cut off %v after NEED_CODE, want %v", got, readTimeout)
	}
	if n := s.pr.lat.Count(); n != 1 {
		t.Fatalf("latency observations = %d, want exactly the healthy request", n)
	}
}

// TestIdempotentRetryDoesNotReExecute pins the retry-safety contract: a
// second exec frame with the same (DeviceID, AID, Seq) — a client retry
// after a lost reply, on a fresh connection — is answered from the dedup
// window without running the workload again.
func TestIdempotentRetryDoesNotReExecute(t *testing.T) {
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 1)
	execs := func() int { return s.pr.cl.Shard(0).DB().Snapshot().TotalExec }
	s.at(0, "phone-r", func(p *sim.Proc) {
		run := func(seq int) (offload.Result, bool) {
			d := s.connect(p, "phone-r")
			defer d.hangUp()
			res, needed, err := d.offload(linpack, seq)
			if err != nil || res.Err != "" || res.Output == "" {
				t.Errorf("seq %d: %+v, %v", seq, res, err)
			}
			return res, needed
		}
		res1, _ := run(0)
		before := execs()
		res2, needed := run(0)
		if needed {
			t.Error("retry was asked to re-push code")
		}
		if res2.Output != res1.Output || res2.ResultBytes != res1.ResultBytes {
			t.Errorf("retry result %+v differs from original %+v", res2, res1)
		}
		if after := execs(); after != before {
			t.Errorf("retry re-executed: %d -> %d executions", before, after)
		}
		// A genuinely new sequence number still executes.
		run(1)
		if after := execs(); after != before+1 {
			t.Errorf("new seq executions = %d, want %d", after, before+1)
		}
	})
	s.run()
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

// TestOptionsDefaults pins the zero/negative semantics of the two sizes.
func TestOptionsDefaults(t *testing.T) {
	if o := (Options{}).withDefaults(); o.PipelineDepth != 1 || o.Shards != 1 {
		t.Fatalf("defaults: %+v, want depth 1 and 1 shard", o)
	}
	if o := (Options{PipelineDepth: -3, Shards: -1}).withDefaults(); o.PipelineDepth != 1 || o.Shards != 1 {
		t.Fatalf("negative sizes should clamp to 1: %+v", o)
	}
	if o := (Options{PipelineDepth: 8, Shards: 4}).withDefaults(); o.PipelineDepth != 8 || o.Shards != 4 {
		t.Fatalf("explicit sizes changed: %+v", o)
	}
}
