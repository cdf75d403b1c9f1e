package core

import (
	"fmt"
	"testing"

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

// coldBootAllocs is what a boot + stop allocates today: the runtime's and
// the container's own objects, per-namespace driver state, the Binder
// context with its service slab and sized registry, the handle slab, the
// slot and its records. It was 70 while every registration allocated its
// node, every module load rebuilt its record, key and shared-state map, and
// every device open its own handle (DESIGN.md, "Cold path"). The fence
// leaves room for two more; a table rebuilt per boot or a key built per
// file read costs tens.
const coldBootAllocs = 35

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
// benchmark's core.warm_request_allocs): the span (its stages inline) and
// the session. It was 3 while the stage list was a second object, and 7
// while the grant list was built per request and the runtime's log line was
// concatenated into a ring that re-grew its array as the log churned.
const warmRequestAllocs = 2

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
