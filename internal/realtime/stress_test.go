package realtime

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
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
// application, and vanish at their first answer — NEED_CODE, a queue
// position or a result — while healthy devices race them for the same
// slots. Every abort must release its slot and every healthy device must
// still get a result; at the end no runtime may be left claimed.
func TestConcurrentAbortedPushesReuseSlots(t *testing.T) {
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 1)
	const aborters, healthy = 6, 4
	for i := 0; i < aborters; i++ {
		i := i
		s.at(time.Duration(i)*time.Millisecond, "aborter", func(p *sim.Proc) {
			d := s.connect(p, fmt.Sprintf("aborter-%d", i))
			d.send(execFrame(chess, i))
			d.recv()
			d.hangUp()
		})
	}
	for i := 0; i < healthy; i++ {
		i := i
		s.at(time.Duration(i)*time.Millisecond, "healthy", func(p *sim.Proc) {
			d := s.connect(p, fmt.Sprintf("healthy-%d", i))
			defer d.hangUp()
			if res, _, err := d.offload(chess, 100+i); err != nil || res.Err != "" || res.Output == "" {
				t.Errorf("healthy-%d: %+v, %v", i, res, err)
			}
		})
	}
	// Once the read deadlines have fired, a fresh device is served at once.
	s.at(2*readTimeout, "after-storm", func(p *sim.Proc) {
		if n := s.pr.cl.Shard(0).DB().StateCount(core.LifecycleActive); n != 0 {
			t.Errorf("aborted pushes left %d runtimes claimed past the read deadline", n)
		}
		d := s.connect(p, "after-storm")
		defer d.hangUp()
		if res, _, err := d.offload(chess, 999); err != nil || res.Err != "" || res.Output == "" {
			t.Errorf("request after abort storm failed: %+v, %v", res, err)
		}
	})
	s.run()
}
