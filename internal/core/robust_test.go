package core

import (
	"errors"
	"testing"
	"time"

	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestBoundedAdmissionRejectsWithRetryAfter pins the dispatcher's overload
// behavior under the serving preset: with the pool capped and the wait
// ring at 2 × MaxRuntimes, a further Prepare is rejected with a typed
// OverloadedError carrying a positive retry-after hint, instead of
// queueing unboundedly.
func TestBoundedAdmissionRejectsWithRetryAfter(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := ServingConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())
	req := offload.ExecRequest{DeviceID: "phone-a", AID: aid, App: app.Name(), Method: "run"}

	var holder offload.Session
	var queuedErr [2]error
	var rejectedErr error
	queuedDone := 0
	e.Spawn("holder", func(p *sim.Proc) {
		s, err := pl.Prepare(p, req)
		if err != nil {
			t.Errorf("holder prepare: %v", err)
			return
		}
		holder = s
		p.Sleep(30 * time.Second) // pin the only slot
		s.Release()
	})
	for i := range queuedErr {
		e.Spawn("queued", func(p *sim.Proc) {
			p.Sleep(5 * time.Second) // after the holder owns the slot
			var s offload.Session
			s, queuedErr[i] = pl.Prepare(p, req) // takes one of the two queue seats
			queuedDone++
			if s != nil {
				s.Release()
			}
		})
	}
	e.Spawn("rejected", func(p *sim.Proc) {
		p.Sleep(10 * time.Second) // after the queue seats are taken
		if queuedDone > 0 {
			t.Error("queued request completed before the holder released")
		}
		_, rejectedErr = pl.Prepare(p, req)
	})
	e.Run()

	if holder == nil {
		t.Fatal("holder never acquired a slot")
	}
	for _, err := range queuedErr {
		if err != nil {
			t.Fatalf("queued request should eventually win the slot: %v", err)
		}
	}
	if queuedDone != 2 {
		t.Fatalf("%d of 2 queued requests completed", queuedDone)
	}
	if rejectedErr == nil {
		t.Fatal("fourth request admitted past the 2 × MaxRuntimes wait ring")
	}
	if !errors.Is(rejectedErr, offload.ErrOverloaded) {
		t.Fatalf("rejection = %v, want ErrOverloaded", rejectedErr)
	}
	var over *offload.OverloadedError
	if !errors.As(rejectedErr, &over) {
		t.Fatalf("rejection %v does not unwrap to *OverloadedError", rejectedErr)
	}
	if over.QueueDepth != 2 {
		t.Errorf("QueueDepth = %d, want 2", over.QueueDepth)
	}
	if over.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want positive hint", over.RetryAfter)
	}
}

// TestUnboundedQueueWhenDepthUnset pins the paper preset's dispatcher:
// under DefaultConfig it queues without limit, here four requests behind
// one runtime, twice the serving preset's bound.
func TestUnboundedQueueWhenDepthUnset(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	app, _ := workload.ByName(workload.NameChess)
	completed := 0
	for i := 0; i < 5; i++ {
		d := mustDeviceIn(t, e, "phone-"+string(rune('a'+i)))
		e.Spawn("req", func(p *sim.Proc) {
			if _, _, err := d.Offload(p, d.NewTask(app), app.CodeSize(), pl); err != nil {
				t.Errorf("offload: %v", err)
				return
			}
			completed++
		})
	}
	e.Run()
	if completed != 5 {
		t.Fatalf("completed = %d, want all 5 queued and served", completed)
	}
}

// TestServingBoundFollowsPoolCeiling: the serving preset's wait ring holds
// 2 × MaxRuntimes requests, read at admission, so raising the ceiling with
// SetPoolBounds raises the bound with it. With one runtime held, two
// requests queue and a third is turned away at depth 2; once the ceiling
// is 2 and a second runtime is held, two more queue and the next is turned
// away at depth 4.
func TestServingBoundFollowsPoolCeiling(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := ServingConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	req, _ := linpackReq("phone")
	hold := func(at time.Duration) {
		e.Spawn("holder", func(p *sim.Proc) {
			p.Sleep(at)
			s, err := pl.Prepare(p, req)
			if err != nil {
				t.Errorf("holder at %v: %v", at, err)
				return
			}
			p.Sleep(time.Minute)
			s.Release()
		})
	}
	errs := make([]error, 6) // three requests at 5 s, three at 20 s
	for i := range errs {
		e.Spawn("request", func(p *sim.Proc) {
			p.Sleep(time.Duration(5+15*(i/3))*time.Second + time.Duration(i)*time.Millisecond)
			s, err := pl.Prepare(p, req)
			errs[i] = err
			if s != nil {
				s.Release()
			}
		})
	}
	hold(0)
	e.Spawn("raise", func(p *sim.Proc) {
		p.Sleep(10 * time.Second)
		pl.SetPoolBounds(0, 2)
	})
	hold(11 * time.Second)
	e.Run()

	for i, err := range errs {
		var over *offload.OverloadedError
		switch {
		case i%3 < 2 && err != nil:
			t.Errorf("request %d: %v, want it queued and served", i, err)
		case i%3 == 2 && !errors.As(err, &over):
			t.Errorf("request %d: %v, want an overload rejection", i, err)
		case i%3 == 2 && over.QueueDepth != 2*(1+i/3):
			t.Errorf("request %d turned away at depth %d, want %d", i, over.QueueDepth, 2*(1+i/3))
		}
	}
}

// TestAbortedPushHandsClaimToExactlyOneWaiter pins the "warehouse lost"
// scenario: the device that claimed the first code push for an AID dies
// before delivering, while other sessions wait on the in-flight push.
// Exactly one waiter must re-claim (its Execute surfaces ErrCodeNeeded so
// its device transfers the code after all); the rest ride the re-claimed
// push through the warehouse. Nobody hangs, nobody double-pushes.
func TestAbortedPushHandsClaimToExactlyOneWaiter(t *testing.T) {
	e := sim.NewEngine(7)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 3
	pl := New(e, cfg)
	app, _ := workload.ByName(workload.NameChess)
	aid := offload.AID(app.Name(), app.CodeSize())
	reqFor := func(dev string) offload.ExecRequest {
		d := mustDeviceIn(t, e, dev)
		task := d.NewTask(app)
		return offload.ExecRequest{DeviceID: dev, AID: aid, App: task.App, Method: task.Method,
			Params: task.Params, ParamBytes: task.ParamBytes}
	}

	var s1 offload.Session
	e.Spawn("aborter", func(p *sim.Proc) {
		s, err := pl.Prepare(p, reqFor("phone-dead"))
		if err != nil {
			t.Errorf("aborter prepare: %v", err)
			return
		}
		if !s.NeedCode() {
			t.Error("first session must be asked for code")
		}
		s1 = s
		// The device disconnects before pushing: hold the claim a while so
		// the waiters land in the in-flight wait, then abort.
		p.Sleep(10 * time.Second)
		s.Release()
	})

	reclaims, successes := 0, 0
	for i := 0; i < 2; i++ {
		dev := "phone-" + string(rune('b'+i))
		e.Spawn("waiter", func(p *sim.Proc) {
			p.Sleep(2 * time.Second) // after the aborter holds the claim
			s, err := pl.Prepare(p, reqFor(dev))
			if err != nil {
				t.Errorf("%s prepare: %v", dev, err)
				return
			}
			defer s.Release()
			if s.NeedCode() {
				t.Errorf("%s: push in flight, session must wait not transfer", dev)
			}
			res, err := s.Execute(p)
			if errors.Is(err, offload.ErrCodeNeeded) {
				reclaims++
				if err := s.PushCode(p, offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}); err != nil {
					t.Errorf("%s re-claim push: %v", dev, err)
					return
				}
				res, err = s.Execute(p)
			}
			if err != nil || res.Err != "" {
				t.Errorf("%s execute: %v / %q", dev, err, res.Err)
				return
			}
			successes++
		})
	}
	e.Run()

	if s1 == nil {
		t.Fatal("aborter never prepared")
	}
	if reclaims != 1 {
		t.Fatalf("re-claims = %d, want exactly one waiter to take over the push", reclaims)
	}
	if successes != 2 {
		t.Fatalf("successes = %d, want both waiters to finish", successes)
	}
	if entries, _, _ := pl.Warehouse().Stats(); entries != 1 {
		t.Fatalf("warehouse entries = %d, want the single re-claimed push", entries)
	}
}

// TestBootFaultFailsPrepare pins fault injection at the boot site: an
// injected boot failure must surface from Prepare and must not leak a
// half-registered runtime.
func TestBootFaultFailsPrepare(t *testing.T) {
	e := sim.NewEngine(1)
	pl := New(e, DefaultConfig(KindRattrap))
	bootErr := errors.New("injected boot failure")
	calls := 0
	pl.SetBootFault(func(p *sim.Proc, id string) error {
		calls++
		if calls == 1 {
			return bootErr
		}
		return nil
	})
	app, _ := workload.ByName(workload.NameChess)
	aid := offload.AID(app.Name(), app.CodeSize())
	req := offload.ExecRequest{DeviceID: "phone-a", AID: aid, App: app.Name(), Method: "bestMove"}
	e.Spawn("t", func(p *sim.Proc) {
		if _, err := pl.Prepare(p, req); !errors.Is(err, bootErr) {
			t.Errorf("first prepare error = %v, want the injected boot fault", err)
		}
		if pl.RuntimeCount() != 0 {
			t.Errorf("failed boot leaked a runtime: count = %d", pl.RuntimeCount())
		}
		s, err := pl.Prepare(p, req)
		if err != nil {
			t.Errorf("second prepare: %v", err)
			return
		}
		s.Release()
	})
	e.Run()
	if pl.RuntimeCount() != 1 {
		t.Fatalf("runtimes = %d, want the retried boot to stand", pl.RuntimeCount())
	}
}
