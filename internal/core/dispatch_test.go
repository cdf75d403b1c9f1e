package core

import (
	"fmt"
	"testing"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

func TestWaiterRingFIFO(t *testing.T) {
	var r waiterRing
	if r.pop() != nil || r.len() != 0 {
		t.Fatal("empty ring not empty")
	}
	// Push through several growth cycles with interleaved pops so the
	// head wraps.
	var pushed, popped []*waiter
	for i := 0; i < 50; i++ {
		w := &waiter{}
		r.push(w)
		pushed = append(pushed, w)
		if i%3 == 2 {
			popped = append(popped, r.pop())
		}
	}
	for r.len() > 0 {
		popped = append(popped, r.pop())
	}
	if len(popped) != len(pushed) {
		t.Fatalf("popped %d of %d", len(popped), len(pushed))
	}
	for i := range pushed {
		if popped[i] != pushed[i] {
			t.Fatalf("ring not FIFO at %d", i)
		}
	}
}

// TestDispatcherFIFOFairness: with one runtime and many contending
// requests, the queue must serve waiters strictly in arrival order.
func TestDispatcherFIFOFairness(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())

	const n = 9
	var order []int
	for i := 0; i < n; i++ {
		i := i
		// Distinct arrival instants, all during the first request's boot,
		// so requests 1..n-1 pile up in the wait queue.
		e.At(sim.Time(time.Duration(i)*time.Millisecond), func() {
			e.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
				sess, err := pl.Prepare(p, offload.ExecRequest{
					DeviceID: fmt.Sprintf("d%d", i), AID: aid, App: app.Name(),
				})
				if err != nil {
					t.Errorf("req %d: %v", i, err)
					return
				}
				order = append(order, i)
				p.Sleep(20 * time.Millisecond) // hold the runtime under contention
				sess.Release()
			})
		})
	}
	e.Run()
	if len(order) != n {
		t.Fatalf("served %d of %d requests", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("waiters served out of arrival order: %v", order)
		}
	}
	if pl.QueueLength() != 0 {
		t.Fatalf("queue not drained: %d", pl.QueueLength())
	}
}

// TestDispatcherAffinityIndexSkipsStoppedRuntime: stale affinity-index
// entries for a stopped runtime must be discarded, not handed out.
func TestDispatcherAffinityIndexSkipsStoppedRuntime(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	pl := New(e, cfg)
	codeSize := 4 * host.MB
	e.Spawn("t", func(p *sim.Proc) {
		slA, err := pl.acquireSlot(p, "app-A", nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := slA.rt.LoadCode(p, "app-A", codeSize); err != nil {
			t.Error(err)
			return
		}
		slB, err := pl.acquireSlot(p, "app-B", nil, nil) // slA busy: boots a second slot
		if err != nil {
			t.Error(err)
			return
		}
		if slB == slA {
			t.Error("dispatcher reused a busy slot")
			return
		}
		if err := slB.rt.LoadCode(p, "app-B", codeSize); err != nil {
			t.Error(err)
			return
		}
		pl.releaseSlot(slA) // indexed under app-A
		pl.releaseSlot(slB) // indexed under app-B

		// Affinity routes app-A back to slA while it lives...
		got, err := pl.acquireSlot(p, "app-A", nil, nil)
		if err != nil || got != slA {
			t.Errorf("affinity pick = %v, %v; want %s", got, err, slA.id)
			return
		}
		pl.releaseSlot(got)

		// ...but once slA is stopped, its index entries are corpses: the
		// next app-A request must fall through to the idle slot slB.
		if err := pl.StopRuntime(p, slA.id); err != nil {
			t.Error(err)
			return
		}
		got, err = pl.acquireSlot(p, "app-A", nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if got != slB {
			t.Errorf("acquire after stop = %s, want %s", got.id, slB.id)
		}
		pl.releaseSlot(got)
	})
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// TestScheduleReapSlotClaimedBetweenCheckAndProc drives the handoff race
// the reap logic re-checks for: the idle check fires, spawns the reap
// proc, and the slot is acquired before that proc runs. The reap must
// stand down instead of stopping a busy runtime (or erroring).
func TestScheduleReapSlotClaimedBetweenCheckAndProc(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	cfg.IdleTimeout = time.Second
	pl := New(e, cfg)
	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())
	req := offload.ExecRequest{DeviceID: "d1", AID: aid, App: app.Name()}

	e.Spawn("flow", func(p *sim.Proc) {
		sess, err := pl.Prepare(p, req)
		if err != nil {
			t.Error(err)
			return
		}
		var cid string
		var booted sim.Time
		for _, r := range pl.DB().List() {
			cid, booted = r.CID, r.BootedAt
		}
		sess.Release() // arms the reap check (seq before our sleep's event)
		// Wake at exactly the reap instant. The check event (armed first)
		// dispatches before this wake, spawns the reap proc, and our
		// re-acquire then runs before that proc starts — the exact window
		// the reap's second look guards.
		p.Sleep(cfg.IdleTimeout)
		sess2, err := pl.Prepare(p, req)
		if err != nil {
			t.Errorf("prepare during reap window: %v", err)
			return
		}
		// The reap proc dispatched after our claim: it must have stood
		// down, leaving us the original runtime — not a fresh boot.
		if got := pl.RuntimeCount(); got != 1 {
			t.Errorf("runtime count during window = %d, want 1", got)
		}
		for _, r := range pl.DB().List() {
			if r.CID != cid || r.BootedAt != booted {
				t.Errorf("runtime rebooted under the claim: %s@%v, want %s@%v",
					r.CID, r.BootedAt, cid, booted)
			}
		}
		p.Sleep(10 * time.Millisecond)
		sess2.Release()
	})
	e.Run()
	// The second release armed its own reap; once the queue drains the
	// pool is legitimately empty again.
	if got := pl.RuntimeCount(); got != 0 {
		t.Fatalf("runtime count after drain = %d, want 0", got)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked procs: %d", e.LiveProcs())
	}
}

// TestScheduleReapReclaimsUntouchedIdle: the complementary case — an
// idle, untouched runtime is really reclaimed after IdleTimeout.
func TestScheduleReapReclaimsUntouchedIdle(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.IdleTimeout = time.Second
	pl := New(e, cfg)
	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())

	e.Spawn("flow", func(p *sim.Proc) {
		sess, err := pl.Prepare(p, offload.ExecRequest{DeviceID: "d1", AID: aid, App: app.Name()})
		if err != nil {
			t.Error(err)
			return
		}
		sess.Release()
	})
	e.Run() // runs the reap too: the event queue drains fully
	if got := pl.RuntimeCount(); got != 0 {
		t.Fatalf("runtime count = %d, want 0 after idle reclamation", got)
	}
	if pl.Kernel.Loaded("binder") {
		// StopRuntime unloads the ACD when the last container dies.
		t.Fatal("ACD still loaded after the pool emptied")
	}
}
