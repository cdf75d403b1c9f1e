package core

import (
	"fmt"
	"testing"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// BenchmarkDispatcherAcquire measures an acquire/release cycle against a
// warm pool: every acquire is an affinity-index hit (the hot path a
// warehouse-hit request takes), with no boot or code load in the loop.
func BenchmarkDispatcherAcquire(b *testing.B) {
	const pool = 8
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = pool
	cfg.IdleTimeout = 0 // no reap events; the loop stays pure dispatch
	pl := New(e, cfg)

	aids := make([]string, pool)
	for i := range aids {
		aids[i] = fmt.Sprintf("app-%d", i)
	}
	e.Spawn("warm", func(p *sim.Proc) {
		held := make([]*slot, pool)
		for i := 0; i < pool; i++ {
			sl, err := pl.acquire(p, aids[i], nil, nil)
			if err != nil {
				b.Error(err)
				return
			}
			if err := pl.loadCode(p, sl, aids[i], 4*host.MB, false); err != nil {
				b.Error(err)
				return
			}
			held[i] = sl
		}
		for _, sl := range held {
			pl.releaseSlot(sl)
		}
	})
	e.Run()
	if b.Failed() {
		b.FailNow()
	}

	b.ResetTimer()
	e.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			sl, err := pl.acquire(p, aids[i%pool], nil, nil)
			if err != nil {
				b.Error(err)
				return
			}
			pl.releaseSlot(sl)
		}
	})
	e.Run()
}

// coldBootPlatform returns an optimized platform that has booted and stopped
// one runtime, so what a platform's first boot leaves behind for good (pooled
// engine workers, grown maps) is already there.
func coldBootPlatform(tb testing.TB) (*sim.Engine, *Platform) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.IdleTimeout = 0 // stops are explicit
	pl := New(e, cfg)
	e.Spawn("warm", func(p *sim.Proc) { coldBoot(tb, pl, p) })
	e.Run()
	return e, pl
}

// coldBoot boots one runtime and stops it again: container create, driver
// load, the Figure 6 sequence over the shared layer, registration, and the
// teardown that unloads the driver — tcp-cold's request minus the request.
func coldBoot(tb testing.TB, pl *Platform, p *sim.Proc) {
	info, err := pl.BootRuntime(p)
	if err != nil {
		tb.Error(err)
		return
	}
	if err := pl.StopRuntime(p, info.CID); err != nil {
		tb.Error(err)
	}
}

// BenchmarkColdBoot measures the boot layer alone (make bench-coldboot):
// wall-clock ns and allocations per boot + stop, -benchmem.
func BenchmarkColdBoot(b *testing.B) {
	e, pl := coldBootPlatform(b)
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			coldBoot(b, pl, p)
		}
	})
	e.Run()
}

// coldBootAllocs is what a boot + stop allocates today, each part of a
// runtime once: the slot (its DB record inside), its CID and the record copy
// BootRuntime returns; the container (its device namespace, union mount and
// private delta inside), the delta's file table and that table's first
// group, and the file nodes of the three boot writes; the namespace's one
// driver state, the Binder context, and its node slab, which is also the
// service registry; the Runtime (its device handles and process census
// inside) and its table of loaded code. It was 70 while every registration
// allocated its node, every module load rebuilt its record, key and
// shared-state map, and every device open its own handle (DESIGN.md, "Cold
// path"); 35 while the post-boot scan was spawned with a name, a closure and
// a proc of its own; 32 while the Binder registry and the namespace's state
// table were maps, the container's namespace, mount, layer stack and delta
// were objects of their own, core named the delta, the slot and its record
// were two objects, and the handles, the census and the first log ring had
// arrays of their own; and 17 while the namespace held an Alarm and two
// logcat rings and the driver load made an Ashmem table, none of which the
// model read. The fence leaves room for two more; a table rebuilt per boot
// or a key built per file read costs tens.
const coldBootAllocs = 13

func TestColdBootAllocs(t *testing.T) {
	e, pl := coldBootPlatform(t)
	var allocs float64
	e.Spawn("fence", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(50, func() { coldBoot(t, pl, p) })
	})
	e.Run()
	if allocs > coldBootAllocs+2 {
		t.Fatalf("a cold boot + stop allocates %.0f objects, fence is %d + 2", allocs, coldBootAllocs)
	}
	t.Logf("a cold boot + stop allocates %.0f objects", allocs)
}

// warmRequestAllocs is what one warm request allocates on an instrumented
// platform — Prepare, Execute and Release of a Linpack order-8 solve whose
// code the runtime holds, its outcome precomputed and a span attached, as
// the realtime server hands core a decoded request (the body of the
// benchmark's core.warm_request_allocs): the span (its stages inline). It
// was 3 while the stage list was a second object, and 7 while the grant list
// was built per request and the runtime's log line was concatenated into a
// ring that re-grew its array as the log churned. It was 2 until the session
// became a value in its runtime's slot.
const warmRequestAllocs = 1

func TestWarmRequestAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	pl := New(e, DefaultConfig(KindRattrap))
	pl.SetObs(obs.NewRegistry())
	app, _ := workload.ByName(workload.NameLinpack)
	task := workload.Task{App: app.Name(), Method: "solve", ParamBytes: 500, Params: workload.EncodeLinpackParams(42, 8)}
	m, err := workload.NewRegistry().Execute(task)
	if err != nil {
		t.Fatal(err)
	}
	pre := &workload.Precomputed{Metrics: m}
	base := offload.ExecRequest{DeviceID: "probe-dev", AID: offload.AID(app.Name(), app.CodeSize()),
		App: task.App, Method: task.Method, Params: task.Params, ParamBytes: task.ParamBytes}
	serve := func(p *sim.Proc) {
		req := base
		req.Seq++
		base.Seq = req.Seq
		req.SetSpan(obs.NewSpan())
		req.SetPrecomputed(pre)
		sess, err := pl.Prepare(p, req)
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Release()
		if sess.NeedCode() {
			if err := sess.PushCode(p, offload.CodePush{AID: req.AID, App: req.App, Size: app.CodeSize()}); err != nil {
				t.Error(err)
				return
			}
		}
		if res, err := sess.Execute(p); err != nil || res.Err != "" {
			t.Errorf("%v %q", err, res.Err)
		}
	}
	var allocs float64
	e.Spawn("fence", func(p *sim.Proc) {
		serve(p) // the first one boots, pushes and grows what stays grown
		allocs = testing.AllocsPerRun(500, func() { serve(p) })
	})
	e.Run()
	t.Logf("a warm request allocates %.0f objects", allocs)
	if allocs > warmRequestAllocs {
		t.Fatalf("a warm request allocates %.0f objects, fence is %d", allocs, warmRequestAllocs)
	}
}

// coldPushAllocs is what one cold request allocates on an instrumented
// platform whose idle runtimes reap at once and whose warehouse holds one
// blob: Prepare boots a runtime, PushCode lands a never-seen AID's code,
// EnforceCapacity evicts the entry before it, Execute runs a Linpack
// order-8 solve and Release leaves the runtime to its reap. The boot and
// the reap's stop are 12 of them: coldBootAllocs but the record copy
// BootRuntime returns. The other 11 are the push claim's signal; the
// manifest, the path and the file node of its one new block (the
// size-salted tail: the library blocks are held) and the cache entry; the
// binding's CID list and reverse-index set; the scheduler's list of the
// slot's codes and the first group of the runtime's table of loaded code;
// and the idle reap's event and closure. The evicted entry's block leaves
// under the path it was written at. It was 27 while a boot made an Alarm
// and two logcat rings; 43 while a boot was 15 objects more (see
// coldBootAllocs) and the first transaction grew the Binder handle table; a
// plain blob staged by its own path was 42, and the manifest the 43rd. It
// was 24 until the session became a value in the slot the boot allocates.
const coldPushAllocs = 23

func TestColdPushAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	app, _ := workload.ByName(workload.NameLinpack)
	cfg := DefaultConfig(KindRattrap)
	cfg.IdleTimeout = time.Nanosecond
	cfg.WarehouseCapacity = app.CodeSize()
	pl := New(e, cfg)
	pl.SetObs(obs.NewRegistry())
	task := workload.Task{App: app.Name(), Method: "solve", ParamBytes: 500, Params: workload.EncodeLinpackParams(42, 8)}
	m, err := workload.NewRegistry().Execute(task)
	if err != nil {
		t.Fatal(err)
	}
	pre := &workload.Precomputed{Metrics: m}
	// Every request's AID is built beforehand, as the wire decodes it
	// before the platform sees it.
	const runs = 200
	sizes := make([]host.Bytes, runs+2)
	aids := make([]string, runs+2)
	for i := range aids {
		sizes[i] = app.CodeSize() + host.Bytes(i)
		aids[i] = offload.AID(app.Name(), sizes[i])
	}
	next := 0
	serve := func(p *sim.Proc) {
		size, aid := sizes[next], aids[next]
		next++
		req := offload.ExecRequest{DeviceID: "probe-dev", AID: aid, App: task.App, Method: task.Method,
			Params: task.Params, ParamBytes: task.ParamBytes, Seq: next}
		req.SetPrecomputed(pre)
		sess, err := pl.Prepare(p, req)
		if err != nil {
			t.Error(err)
			return
		}
		if !sess.NeedCode() {
			t.Errorf("%s: a never-seen AID needs no code", aid)
		} else if err := sess.PushCode(p, offload.CodePush{AID: aid, App: req.App, Size: size}); err != nil {
			t.Error(err)
		} else if res, err := sess.Execute(p); err != nil || res.Err != "" {
			t.Errorf("%v %q", err, res.Err)
		}
		sess.Release()
		p.Sleep(time.Millisecond) // the idle runtime reaps
	}
	var allocs float64
	e.Spawn("fence", func(p *sim.Proc) {
		serve(p) // the first one grows what stays grown
		allocs = testing.AllocsPerRun(runs, func() { serve(p) })
	})
	e.Run()
	if t.Failed() {
		return
	}
	if n := pl.warehouse.evictions; n < runs {
		t.Fatalf("%d evictions over %d cold pushes; every push must evict the one before", n, runs+2)
	}
	if n := pl.DB().StateCount(LifecycleIdle) + pl.DB().StateCount(LifecycleActive); n != 0 {
		t.Fatalf("%d runtimes left unreaped", n)
	}
	t.Logf("a cold request allocates %.2f objects", allocs)
	if allocs > coldPushAllocs {
		t.Fatalf("a cold request allocates %.2f objects, fence is %d", allocs, coldPushAllocs)
	}
}
