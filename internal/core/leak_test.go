package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"rattrap/internal/android"
	"rattrap/internal/host"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
	"rattrap/internal/workload"
)

// TestReapedRuntimesLeaveNoIndexEntries: boot → execute → reap rounds with
// an AID that is never requested again must leave nothing behind that
// keeps the dead runtime reachable — no scheduler entry (the affinity
// heaps were only ever emptied by a later Pick on the same AID) and no
// page-cache key of the reaped container's private delta.
func TestReapedRuntimesLeaveNoIndexEntries(t *testing.T) {
	for _, policy := range []SchedulerPolicy{SchedAffinity, SchedFIFO} {
		t.Run(policy.String(), func(t *testing.T) {
			e := sim.NewEngine(1)
			cfg := DefaultConfig(KindRattrap)
			cfg.Scheduler = policy
			cfg.IdleTimeout = time.Second
			pl := New(e, cfg)
			d := mustDevice(t, e, "phone-1")
			app, _ := workload.ByName(workload.NameLinpack)

			const rounds = 5
			var cids []string
			var deltas []*unionfs.Layer // each runtime's private layer, held from before its reap
			e.Spawn("flow", func(p *sim.Proc) {
				for i := 0; i < rounds; i++ {
					// A distinct code size is a distinct AID.
					if _, _, err := d.Offload(p, d.NewTask(app), app.CodeSize()+host.Bytes(i), pl); err != nil {
						t.Error(err)
						return
					}
					cid := pl.slots.head.id
					cids = append(cids, cid)
					delta := pl.slots.head.env.FS().Upper()
					deltas = append(deltas, delta)
					if !delta.CachedOn(pl.Server, "/data/local.prop") {
						t.Errorf("round %d: %s's boot writes are not in the page cache while it lives", i, cid)
					}
					p.Sleep(10 * time.Second) // far past the idle timeout
					if n := pl.RuntimeCount(); n != 0 {
						t.Errorf("round %d: %d runtimes left after the idle timeout", i, n)
					}
				}
			})
			e.Run()
			if len(cids) != rounds {
				t.Fatalf("completed %d of %d rounds", len(cids), rounds)
			}

			switch s := pl.sched.(type) {
			case *AffinityScheduler:
				if len(s.idle) != 0 || len(s.affinity) != 0 {
					t.Errorf("affinity scheduler retains %d idle entries and %d per-AID heaps for reaped runtimes", len(s.idle), len(s.affinity))
				}
			case *FIFOScheduler:
				if len(s.idle) != 0 {
					t.Errorf("fifo scheduler retains %d idle entries for reaped runtimes", len(s.idle))
				}
			}
			for i, delta := range deltas {
				for _, f := range []string{"/data/dalvik-cache/system@offloadruntime.dex", "/data/local.prop", "/data/misc/boot.log"} {
					if !delta.Has(f) {
						t.Errorf("%s's private layer has no %s; the test observes nothing", cids[i], f)
					}
					if delta.CachedOn(pl.Server, f) {
						t.Errorf("page cache still holds %s:%s of a reaped runtime", delta.Name(), f)
					}
				}
			}
		})
	}
}

// TestStoppedRuntimesLeaveNoPageCacheKeys: a reclaimed runtime's private
// layers are never read again and their keys never reused, so boot → stop
// rounds must bring the page cache back to its pre-boot size every time —
// after a clean stop, and after a teardown that fails (the injected fault
// stands in for a failing ctr.Stop / vmach.Destroy, which never reaches the
// guest's own eviction). The optimized container holds a private delta; a
// KindRattrapWO container additionally holds its private rootfs copy
// (~1300 keys a boot). A VM caches nothing private.
func TestStoppedRuntimesLeaveNoPageCacheKeys(t *testing.T) {
	for _, kind := range []Kind{KindRattrap, KindRattrapWO} {
		t.Run(kind.String(), func(t *testing.T) {
			e := sim.NewEngine(1)
			cfg := DefaultConfig(kind)
			cfg.IdleTimeout = 0 // stops are explicit here
			pl := New(e, cfg)
			faultErr := errors.New("teardown fault")
			faulty := false
			pl.SetTeardownFault(func(p *sim.Proc, id string) error {
				if faulty {
					return faultErr
				}
				return nil
			})

			e.Spawn("flow", func(p *sim.Proc) {
				// Round 0 stops cleanly and asserts nothing: it absorbs what
				// the platform's first boot caches for good (kernel modules,
				// shared files) and so fixes the pre-boot size every later
				// round must return to. Rounds 1-2 stop cleanly, 3-5 faulted.
				for round := 0; round < 6; round++ {
					faulty = round > 2
					before := pl.Server.CachedFiles()
					sl, err := pl.acquireSlot(p, "app-A", nil, nil)
					if err != nil {
						t.Error(err)
						return
					}
					pl.releaseSlot(sl)
					if pl.Server.CachedFiles() <= before {
						t.Errorf("round %d: the boot left nothing in the page cache; the test observes nothing", round)
					}
					err = pl.StopRuntime(p, sl.id)
					if faulty != errors.Is(err, faultErr) {
						t.Errorf("round %d: StopRuntime error = %v (fault injected: %v)", round, err, faulty)
					}
					if after := pl.Server.CachedFiles(); round > 0 && after != before {
						t.Errorf("round %d (faulted: %v): page cache holds %d keys after the stop, %d before the boot", round, faulty, after, before)
					}
				}
				// A boot that fails after provisioning (the server is out of
				// memory) must not leave the half-built runtime's keys either.
				before := pl.Server.CachedFiles()
				free := pl.Server.Config().MemMB - pl.Server.MemUsedMB()
				if err := pl.Server.AllocMem(free); err != nil {
					t.Error(err)
					return
				}
				if _, err := pl.BootRuntime(p); err == nil {
					t.Error("boot succeeded on a server with no free memory")
				}
				pl.Server.FreeMem(free)
				if after := pl.Server.CachedFiles(); after != before {
					t.Errorf("failed boot: page cache holds %d keys, %d before", after, before)
				}
			})
			e.Run()
		})
	}
}

// TestDroppedChunkedCodeLeavesPageCache: a chunk-pushed code has no staged
// blob file, so a runtime loading it caches the reassembled blob under a key
// of its own (android.CodeCacheKey). The key must leave the page cache with
// the warehouse entry; nothing else ever names it again. Distinct AIDs pushed
// through a capacity-bounded warehouse keep it evicting, and the page cache
// may then hold one such key per live entry and not one more.
func TestDroppedChunkedCodeLeavesPageCache(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.WarehouseCapacity = 4 * host.MB
	pl := New(e, cfg)
	d := mustDevice(t, e, "phone-1")
	d.EnableChunkedPush(true)
	app, _ := workload.ByName(workload.NameLinpack)

	var aids []string
	e.Spawn("flow", func(p *sim.Proc) {
		steady := -1
		for i := 0; i < 40; i++ {
			size := app.CodeSize() + host.Bytes(i)*offload.ChunkSize // a distinct AID with a chunk of its own
			if _, _, err := d.Offload(p, d.NewTask(app), size, pl); err != nil {
				t.Error(err)
				return
			}
			aids = append(aids, offload.AID(app.Name(), size))
			live := 0
			for _, aid := range aids {
				if _, ok := pl.warehouse.Lookup(aid); ok {
					live++
				} else if pl.Server.Cached(android.CodeCacheKey(aid)) {
					t.Errorf("push %d: the page cache still holds the blob of dropped code %s", i, aid)
				}
			}
			if !pl.Server.Cached(android.CodeCacheKey(aids[i])) {
				t.Errorf("push %d: the loaded blob is not in the page cache; the test observes nothing", i)
			}
			switch rest := pl.Server.CachedFiles() - live; {
			case steady < 0:
				steady = rest
			case rest != steady:
				t.Errorf("push %d: %d cached files besides the %d live codes, %d after the first push", i, rest, live, steady)
			}
		}
	})
	e.Run()
	if n := pl.warehouse.Evictions(); n < 10 {
		t.Fatalf("the warehouse evicted %d entries; the test needs it to keep evicting", n)
	}
}

// TestWarmRequestsKeepHeapFlat: the serving path must keep no per-request
// history. After the first ten thousand warm requests have grown whatever
// grows to a steady size (rings, histograms, pooled buffers), ninety
// thousand more may not move the live heap by more than a small constant —
// the host's utilization recorder alone used to add ~32 B a request.
func TestWarmRequestsKeepHeapFlat(t *testing.T) {
	e := sim.NewEngine(1)
	pl := New(e, DefaultConfig(KindRattrap))
	pl.SetObs(obs.NewRegistry()) // as the realtime server runs it
	app, _ := workload.ByName(workload.NameLinpack)
	task := workload.Task{
		App: app.Name(), Method: "solve", ParamBytes: 500,
		Params: workload.EncodeLinpackParams(1, 8),
	}
	m, err := workload.NewRegistry().Execute(task)
	if err != nil {
		t.Fatal(err)
	}
	pre := &workload.Precomputed{Metrics: m}
	req := offload.ExecRequest{
		DeviceID: "phone-1", AID: offload.AID(app.Name(), app.CodeSize()), App: task.App,
		Method: task.Method, Params: task.Params, ParamBytes: task.ParamBytes,
	}
	seq := 0
	serve := func(n int) {
		e.Spawn("flow", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				seq++
				req.Seq = seq
				req.SetSpan(obs.NewSpan())
				req.SetPrecomputed(pre)
				sess, err := pl.Prepare(p, req)
				if err != nil {
					t.Error(err)
					return
				}
				if sess.NeedCode() {
					if err := sess.PushCode(p, offload.CodePush{AID: req.AID, App: req.App, Size: app.CodeSize()}); err != nil {
						t.Error(err)
					}
				}
				if res, err := sess.Execute(p); err != nil || res.Err != "" {
					t.Errorf("request %d: %v %q", seq, err, res.Err)
				}
				sess.Release()
			}
		})
		e.Run()
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's sweep finalized
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	serve(10_000)
	at10k := liveHeap()
	serve(90_000)
	at100k := liveHeap()
	runtime.KeepAlive(pl) // or the second reading is of a heap without the platform
	if t.Failed() {
		return
	}
	const slack = 256 << 10
	if at100k > at10k+slack {
		t.Fatalf("live heap grew from %d B at 10k warm requests to %d B at 100k (+%d B, %.1f B a request)",
			at10k, at100k, at100k-at10k, float64(at100k-at10k)/90_000)
	}
}
