package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

func autoscaleTestConfig(minR, maxR int) Config {
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = maxR
	cfg.MinRuntimes = minR
	cfg.Autoscale = true
	return cfg
}

func linpackReq(dev string) (offload.ExecRequest, offload.CodePush) {
	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())
	req := offload.ExecRequest{DeviceID: dev, AID: aid, App: app.Name(), Method: "solve",
		Params: workload.EncodeLinpackParams(1, 64)}
	push := offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}
	return req, push
}

// asOffloadOnce drives one full request against pl, pushing code if asked.
func asOffloadOnce(t *testing.T, p *sim.Proc, pl *Platform, dev string) offload.Result {
	t.Helper()
	req, push := linpackReq(dev)
	sess, err := pl.Prepare(p, req)
	if err != nil {
		t.Errorf("%s: prepare: %v", dev, err)
		return offload.Result{Err: err.Error()}
	}
	defer sess.Release()
	if sess.NeedCode() {
		if err := sess.PushCode(p, push); err != nil {
			t.Errorf("%s: push: %v", dev, err)
			return offload.Result{Err: err.Error()}
		}
	}
	res, err := sess.Execute(p)
	if errors.Is(err, offload.ErrCodeNeeded) {
		if err = sess.PushCode(p, push); err == nil {
			res, err = sess.Execute(p)
		}
	}
	if err != nil {
		t.Errorf("%s: execute: %v", dev, err)
		return offload.Result{Err: err.Error()}
	}
	return res
}

// TestStopRuntimeTeardownFaultReclaimsSlot is the regression test for the
// draining-slot capacity leak: a failed Destroy/Stop used to leave the
// slot in LifecycleDraining forever — still on the slot list, counting
// against MaxRuntimes. The repaired path must surface the error AND fully
// reclaim the slot, so a MaxRuntimes=1 platform can boot a replacement.
func TestStopRuntimeTeardownFaultReclaimsSlot(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	faultErr := errors.New("destroy failed")
	pl.SetTeardownFault(func(p *sim.Proc, id string) error { return faultErr })

	e.Spawn("t", func(p *sim.Proc) {
		sl, err := pl.acquire(p, "app-A", nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		cid := sl.id
		pl.releaseSlot(sl)

		err = pl.StopRuntime(p, cid)
		if !errors.Is(err, faultErr) {
			t.Errorf("StopRuntime error = %v, want wrapped %v", err, faultErr)
		}
		// The slot must be gone despite the teardown failure.
		if n := pl.RuntimeCount(); n != 0 {
			t.Errorf("pool size after failed teardown = %d, want 0", n)
		}
		if n := pl.DB().StateCount(LifecycleDraining); n != 0 {
			t.Errorf("%d slot(s) stuck draining", n)
		}
		if got := pl.FailureCount(FailTeardown); got != 1 {
			t.Errorf("teardown failure count = %d, want 1", got)
		}

		// Capacity restored: the 1-slot pool can boot a fresh runtime.
		// Before the fix this booted nothing (slots.n was still 1) and the
		// request parked forever.
		sl2, err := pl.acquire(p, "app-A", nil, nil)
		if err != nil {
			t.Errorf("acquire after failed teardown: %v", err)
			return
		}
		if sl2.id == cid {
			t.Errorf("got the condemned slot %s back", cid)
		}
		pl.releaseSlot(sl2)
	})
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// TestRetryAfterHintUsesLiveCensus pins the hint against a half-grown
// pool: with MaxRuntimes 4 but only one live runtime, the drain-rate
// divisor must be 1 (the schedulable census), not 4 — dividing by the cap
// quartered the hint and clients retried into the same wall.
func TestRetryAfterHintUsesLiveCensus(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 4
	pl := New(e, cfg)

	e.Spawn("t", func(p *sim.Proc) {
		// Empty pool: floor the divisor at 1 rather than divide by zero.
		pl.holdEWMA = 400 * time.Millisecond
		if got, want := pl.retryAfterHint(), 400*time.Millisecond; got != want {
			t.Errorf("empty-pool hint = %v, want %v", got, want)
		}

		if _, err := pl.BootRuntime(p); err != nil {
			t.Fatal(err)
		}
		pl.holdEWMA = 400 * time.Millisecond // boot path may have touched nothing, but pin it
		// One live runtime, empty queue: one hold-time, not a quarter.
		if got, want := pl.retryAfterHint(), 400*time.Millisecond; got != want {
			t.Errorf("half-grown-pool hint = %v, want %v (cap-divided would be %v)",
				got, want, 100*time.Millisecond)
		}
	})
	e.Run()
}

// TestAbortQueuedWaiter: a queued request whose abort signal fires must
// return ErrAborted, and the eventual release must skip its corpse and
// leave the runtime idle for live requests.
func TestAbortQueuedWaiter(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	abort := sim.NewSignal(e)

	var holder *slot
	e.Spawn("holder", func(p *sim.Proc) {
		sl, err := pl.acquire(p, "app-A", nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		holder = sl
	})
	var aborted error
	e.At(sim.Time(3*time.Second), func() {
		e.Spawn("victim", func(p *sim.Proc) {
			_, aborted = pl.acquire(p, "app-A", nil, abort)
		})
	})
	e.At(sim.Time(4*time.Second), func() {
		if pl.QueueLength() != 1 {
			t.Errorf("victim not queued: queue %d", pl.QueueLength())
		}
		abort.Fire()
	})
	e.At(sim.Time(5*time.Second), func() {
		e.Spawn("release", func(p *sim.Proc) {
			pl.releaseSlot(holder)
			// The aborted waiter must not have been handed the slot.
			if st := holder.info.State; st != LifecycleIdle {
				t.Errorf("slot after release = %s, want idle", st)
			}
			sl, err := pl.acquire(p, "app-A", nil, nil)
			if err != nil || sl != holder {
				t.Errorf("live acquire after abort = %v, %v; want the idle slot", sl, err)
				return
			}
			pl.releaseSlot(sl)
		})
	})
	e.Run()
	if !errors.Is(aborted, ErrAborted) {
		t.Errorf("aborted waiter error = %v, want ErrAborted", aborted)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// TestAbortAfterHandoffReReleases drives the narrow ordering where a
// release hands the slot to a waiter in the same instant its abort fires,
// with the abort callback running before the waiter resumes. The waiter
// must hand the slot back instead of stranding it LifecycleActive.
func TestAbortAfterHandoffReReleases(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	abort := sim.NewSignal(e)

	var holder *slot
	e.Spawn("holder", func(p *sim.Proc) {
		sl, err := pl.acquire(p, "app-A", nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		holder = sl
	})
	var aborted error
	e.At(sim.Time(3*time.Second), func() {
		e.Spawn("victim", func(p *sim.Proc) {
			_, aborted = pl.acquire(p, "app-A", nil, abort)
		})
	})
	// Same virtual instant, in event order: the abort fires (queueing its
	// callback), then the release pops the still-live waiter and fires its
	// signal, then the abort callback marks it aborted, and only then does
	// the waiter resume — finding w.aborted set AND w.sl assigned.
	e.At(sim.Time(4*time.Second), func() { abort.Fire() })
	e.At(sim.Time(4*time.Second), func() { pl.releaseSlot(holder) })
	e.Run()

	if !errors.Is(aborted, ErrAborted) {
		t.Errorf("waiter error = %v, want ErrAborted", aborted)
	}
	// The re-release must have parked the slot idle, not stranded it
	// active with no owner.
	if st := holder.info.State; st != LifecycleIdle {
		t.Errorf("slot state = %s, want idle", st)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// TestAutoscalerGrowsAndScalesToZero: a burst against an empty elastic
// pool must grow it past one runtime, serve everything, then shrink all
// the way back to zero — and the engine's event queue must drain (the
// control loop goes silent instead of ticking forever).
func TestAutoscalerGrowsAndScalesToZero(t *testing.T) {
	e := sim.NewEngine(1)
	pl := New(e, autoscaleTestConfig(0, 6))

	const n = 12
	served := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * 10 * time.Millisecond)
			if res := asOffloadOnce(t, p, pl, fmt.Sprintf("d%d", i)); res.Err == "" {
				served++
			}
		})
	}
	peak := 0
	e.Spawn("watch", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			p.Sleep(50 * time.Millisecond)
			if n := pl.RuntimeCount(); n > peak {
				peak = n
			}
		}
	})
	e.Run()
	if served != n {
		t.Fatalf("served %d of %d", served, n)
	}
	if peak < 2 {
		t.Errorf("pool never grew: peak %d", peak)
	}
	if peak > 6 {
		t.Errorf("pool exceeded MaxRuntimes: peak %d", peak)
	}
	if got := pl.RuntimeCount(); got != 0 {
		t.Errorf("pool after idle = %d, want 0 (scale-to-zero)", got)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// TestAutoscalerMaintainsFloor: MinRuntimes pre-warms without any
// traffic, and the pool settles exactly at the floor.
func TestAutoscalerMaintainsFloor(t *testing.T) {
	e := sim.NewEngine(1)
	pl := New(e, autoscaleTestConfig(2, 5))
	e.Run() // no traffic at all: the loop must still pre-warm the floor
	if got := pl.RuntimeCount(); got != 2 {
		t.Fatalf("idle pool = %d, want the MinRuntimes floor 2", got)
	}
	if got := pl.DB().StateCount(LifecycleIdle); got != 2 {
		t.Fatalf("idle census = %d, want 2", got)
	}
}

// TestExecFailuresCordonAndReplace: three consecutive exec failures on
// one runtime must cordon it, drain it out of the pool, and leave the
// platform serving from replacement capacity.
func TestExecFailuresCordonAndReplace(t *testing.T) {
	e := sim.NewEngine(1)
	pl := New(e, autoscaleTestConfig(1, 3))

	var sickCID string
	pl.SetExecFault(func(p *sim.Proc, id, aid string) error {
		if id == sickCID {
			return errors.New("sick runtime")
		}
		return nil
	})

	failed, ok := 0, 0
	e.Spawn("driver", func(p *sim.Proc) {
		// First request boots the runtime that will get sick; identify it.
		req, push := linpackReq("d0")
		sess, err := pl.Prepare(p, req)
		if err != nil {
			t.Fatal(err)
		}
		sickCID = pl.slots.head.id
		if sess.NeedCode() {
			if err := sess.PushCode(p, push); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := sess.Execute(p); err != nil || res.Err == "" {
			t.Fatalf("expected injected exec failure, got %v / %+v", err, res)
		}
		sess.Release()
		failed++

		// Two more strikes; the third cordons.
		for i := 1; i < 3; i++ {
			if res := asOffloadOnce(t, p, pl, fmt.Sprintf("d%d", i)); res.Err != "" {
				failed++
			}
		}
		if got := pl.Cordoned(); got != 1 {
			t.Errorf("cordons after 3 strikes = %d, want 1", got)
		}
		// Give the drain and replacement a moment, then requests must
		// succeed on a fresh runtime.
		p.Sleep(5 * time.Second)
		for i := 3; i < 6; i++ {
			if res := asOffloadOnce(t, p, pl, fmt.Sprintf("d%d", i)); res.Err == "" {
				ok++
			}
		}
	})
	e.Run()
	if failed != 3 {
		t.Fatalf("injected failures = %d, want 3", failed)
	}
	if ok != 3 {
		t.Fatalf("post-remediation successes = %d, want 3", ok)
	}
	if pl.byID[sickCID] != nil {
		t.Errorf("sick runtime %s still in the pool", sickCID)
	}
	if got := pl.FailureCount(FailExec); got != 3 {
		t.Errorf("exec failure total = %d, want 3", got)
	}
	if got := pl.DB().StateCount(LifecycleDraining); got != 0 {
		t.Errorf("%d slot(s) stuck draining", got)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// TestLifecycleCensusInvariant is the property test: under autoscaler
// churn with injected boot, exec, and teardown faults, every lifecycle
// edge taken must be in the legal matrix, and between events the books
// must always agree (Audit). SetLifecycleHooks is
// how we observe every single edge (so the test must not also SetObs,
// which would overwrite the hooks). The template subtest runs the same
// storm under the serving preset, so clone boots walk the identical FSM.
func TestLifecycleCensusInvariant(t *testing.T) {
	t.Run("cold", func(t *testing.T) { lifecycleCensusStorm(t, false) })
	t.Run("template", func(t *testing.T) { lifecycleCensusStorm(t, true) })
}

func lifecycleCensusStorm(t *testing.T, serving bool) {
	e := sim.NewEngine(7)
	cfg := autoscaleTestConfig(0, 4)
	cfg.serving = serving
	pl := New(e, cfg)
	// Two strikes, not cordonThreshold's three, and every exec on the
	// first-booted runtime fails: its second request cordons it, so drains
	// are among the edges checked.
	pl.ft = newFailureTracker(2)

	edges := 0
	pl.DB().SetLifecycleHooks(func(from, to Lifecycle) {
		edges++
		if !LegalTransition(from, to) {
			t.Errorf("illegal edge %s -> %s", from, to)
		}
	}, nil)

	// Deterministic fault mix: every 5th boot, every 7th exec, every exec
	// on the first-booted runtime and every 3rd teardown fail.
	boots, execs, stops := 0, 0, 0
	first := ""
	pl.SetBootFault(func(p *sim.Proc, id string) error {
		boots++
		if first == "" {
			first = id
		}
		if boots%5 == 0 {
			return errors.New("boot fault")
		}
		return nil
	})
	pl.SetExecFault(func(p *sim.Proc, id, aid string) error {
		execs++
		if execs%7 == 0 || id == first {
			return errors.New("exec fault")
		}
		return nil
	})
	pl.SetTeardownFault(func(p *sim.Proc, id string) error {
		stops++
		if stops%3 == 0 {
			return errors.New("teardown fault")
		}
		return nil
	})

	for i := 0; i < 24; i++ {
		i := i
		e.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			// Three waves with idle gaps between them, so the pool grows,
			// shrinks toward zero, and grows again.
			p.Sleep(time.Duration(i/8)*20*time.Second + time.Duration(i%8)*30*time.Millisecond)
			req, push := linpackReq(fmt.Sprintf("d%d", i))
			sess, err := pl.Prepare(p, req)
			if err != nil {
				return // boot fault surfaced; acceptable
			}
			defer sess.Release()
			if sess.NeedCode() {
				if err := sess.PushCode(p, push); err != nil {
					return
				}
			}
			res, err := sess.Execute(p)
			if errors.Is(err, offload.ErrCodeNeeded) {
				if err = sess.PushCode(p, push); err == nil {
					_, _ = sess.Execute(p)
				}
			}
			_ = res
		})
	}
	// The audit runs between events, where the platform's bookkeeping must
	// be consistent.
	e.Spawn("audit", func(p *sim.Proc) {
		for i := 0; i < 1500; i++ {
			p.Sleep(50 * time.Millisecond)
			if err := pl.Audit(); err != nil {
				t.Errorf("at %v: %v", e.Now().Duration(), err)
				return
			}
		}
	})
	e.Run()
	if edges == 0 {
		t.Fatal("no lifecycle edges observed; the property test proved nothing")
	}
	if pl.Cordoned() == 0 {
		t.Fatal("no runtime cordoned; the storm checked no drain")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// TestPoolUsageIntegratesPoolSize: PoolUsage is the pool size integrated
// over virtual time, slope n while n slots exist (booting ones included,
// from the moment they joined the slot list), and peak is the largest n.
func TestPoolUsageIntegratesPoolSize(t *testing.T) {
	e := sim.NewEngine(1)
	pl := New(e, DefaultConfig(KindRattrap))
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("boot-%d", i), func(p *sim.Proc) {
			if _, err := pl.BootRuntime(p); err != nil {
				t.Error(err)
			}
		})
	}
	var at10, at20 float64
	e.Spawn("probe", func(p *sim.Proc) {
		p.Sleep(10 * time.Second)
		at10, _ = pl.PoolUsage()
		p.Sleep(10 * time.Second)
		at20, _ = pl.PoolUsage()
		if err := pl.StopRuntime(p, pl.DB().List()[0].CID); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if at10 != 20 || at20 != 40 {
		t.Fatalf("two slots since t=0: usage %v at 10 s and %v at 20 s, want 20 and 40", at10, at20)
	}
	stopped, peak := pl.PoolUsage()
	e.Spawn("idle", func(p *sim.Proc) { p.Sleep(5 * time.Second) })
	e.Run()
	later, _ := pl.PoolUsage()
	if peak != 2 || pl.RuntimeCount() != 1 || later-stopped != 5 {
		t.Fatalf("after one stop: peak %d, pool %d, %v runtime-seconds over 5 s (want 2, 1, 5)",
			peak, pl.RuntimeCount(), later-stopped)
	}
}

// A slot owns one stop proc, so a second stop decided before the first
// has started is the same proc, run once for the later decision: the victim
// stops once, and a release between the decisions does not save it from
// the second. A release after the only decision does.
func TestSecondStopBeforeFirstStarts(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.IdleTimeout = 0 // no reaps: only the decisions below stop runtimes
	pl := New(e, cfg)
	pl.SetObs(obs.NewRegistry())
	a := &autoscaler{pl: pl} // decides by hand, with no control loop
	stops := func() int64 { return pl.om.asStops.Value() }
	claimAndRelease := func(p *sim.Proc) {
		sl, err := pl.acquire(p, "aid", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pl.releaseSlot(sl)
	}
	e.Spawn("t", func(p *sim.Proc) {
		old, err := pl.BootRuntime(p)
		if err != nil {
			t.Fatal(err)
		}
		young, err := pl.BootRuntime(p)
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Second)
		a.stopOneIdle()
		a.stopOneIdle()
		if pl.byID[old.CID].stop.Done() || !pl.byID[young.CID].stop.Done() {
			t.Fatal("two decisions did not both pick the longest-idle runtime")
		}
		p.Sleep(time.Second)
		if pl.byID[old.CID] != nil || pl.byID[young.CID] == nil || stops() != 1 {
			t.Fatalf("after two decisions: old live %v, young live %v, %d stops; want one stop of the old",
				pl.byID[old.CID] != nil, pl.byID[young.CID] != nil, stops())
		}

		a.stopOneIdle()
		claimAndRelease(p)
		p.Sleep(time.Second)
		if pl.byID[young.CID] == nil || stops() != 1 {
			t.Fatal("a runtime released after the decision to stop it was stopped")
		}

		a.stopOneIdle()
		claimAndRelease(p)
		a.stopOneIdle()
		p.Sleep(time.Second)
		if pl.byID[young.CID] != nil || stops() != 2 {
			t.Fatalf("a decision after the release did not stop the runtime: %d stops", stops())
		}
	})
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// A drain decided twice before it starts stops the runtime once.
func TestSecondDrainBeforeFirstStarts(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.IdleTimeout = 0
	pl := New(e, cfg)
	e.Spawn("t", func(p *sim.Proc) {
		info, err := pl.BootRuntime(p)
		if err != nil {
			t.Fatal(err)
		}
		sl := pl.byID[info.CID]
		pl.CordonRuntime(info.CID) // idle: drains at once
		pl.armStop(sl, false)
		if sl.stop.Done() {
			t.Fatal("no drain live after the cordon")
		}
		p.Sleep(time.Second)
		if pl.byID[info.CID] != nil || !sl.stop.Done() {
			t.Fatal("the cordoned runtime was not drained")
		}
	})
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// A reap whose proc has started but not yet run, then a cordon of its slot:
// the cordon finds the slot's one stop proc live and starts nothing, and
// that proc drains the slot although a cordoned slot is not idle to a
// reap. The runtime stops once and no proc is left.
func TestCordonAfterReapStarts(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.IdleTimeout = time.Second
	pl := New(e, cfg)
	teardowns := 0
	pl.SetTeardownFault(func(p *sim.Proc, id string) error { teardowns++; return nil })
	e.Spawn("t", func(p *sim.Proc) {
		sl, err := pl.acquire(p, "aid", nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		pl.releaseSlot(sl) // arms the reap for a second from now
		e.After(cfg.IdleTimeout, func() {
			// After the reap's timer, before its proc runs.
			if sl.stop.Done() {
				t.Error("no reap live at its timeout")
			}
			pl.CordonRuntime(sl.id)
		})
		p.Sleep(2 * cfg.IdleTimeout)
		if pl.RuntimeCount() != 0 || teardowns != 1 || !sl.stop.Done() {
			t.Errorf("after reap and cordon: %d runtimes, %d teardowns, stop live %v; want 0, 1, false",
				pl.RuntimeCount(), teardowns, !sl.stop.Done())
		}
	})
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// A runtime cordoned while it boots for no one (a shard retired under its
// backlog boot, the cordon of every runtime and then RejectQueued) drains
// once the boot completes, instead of parking idle, unschedulable and
// never stopped.
func TestRuntimeCordonedWhileBootingDrains(t *testing.T) {
	e := sim.NewEngine(1)
	pl := New(e, autoscaleTestConfig(0, 2))
	req, _ := linpackReq("phone")
	e.Spawn("holder", func(p *sim.Proc) {
		s, err := pl.Prepare(p, req)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(time.Minute)
		s.Release()
	})
	e.Spawn("parked", func(p *sim.Proc) {
		p.Sleep(10 * time.Second)
		if _, err := pl.Prepare(p, req); err == nil {
			t.Error("a request parked on a retired pool was served")
		}
	})
	e.Spawn("retire", func(p *sim.Proc) {
		p.Sleep(10*time.Second + 2*tickInterval) // the backlog boot is under way
		if pl.DB().StateCount(LifecycleBooting) != 1 {
			t.Error("no backlog boot under way")
		}
		for _, ri := range pl.DB().List() {
			pl.CordonRuntime(ri.CID)
		}
		pl.RejectQueued()
	})
	e.Run()
	if pl.RuntimeCount() != 0 || pl.Cordoned() != 2 {
		t.Errorf("after the retire: %d runtimes, %d cordoned; want 0 and 2", pl.RuntimeCount(), pl.Cordoned())
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}
