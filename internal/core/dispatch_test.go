package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// acquire is Prepare's dispatch without a session: acquireSlot, then
// waitSlot on a waiter of its own when the request must queue.
func (pl *Platform) acquire(p *sim.Proc, aid string, sp *obs.Span, abort *sim.Signal) (*slot, error) {
	sl, queue, err := pl.acquireSlot(p, aid, sp, abort)
	if queue {
		return pl.waitSlot(p, new(waiter), sp, abort)
	}
	return sl, err
}

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
		slA, err := pl.acquire(p, "app-A", nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := slA.rt.LoadCode(p, "app-A", codeSize); err != nil {
			t.Error(err)
			return
		}
		slB, err := pl.acquire(p, "app-B", nil, nil) // slA busy: boots a second slot
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
		got, err := pl.acquire(p, "app-A", nil, nil)
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
		got, err = pl.acquire(p, "app-A", nil, nil)
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

// TestSessionBelongsToItsSlot: a request's session is a value in its
// runtime's slot, so two requests served one after the other on the same
// runtime get the same session, each open only between its Prepare and
// its Release.
func TestSessionBelongsToItsSlot(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	app, _ := workload.ByName(workload.NameLinpack)
	req := offload.ExecRequest{DeviceID: "d", AID: offload.AID(app.Name(), app.CodeSize()), App: app.Name()}
	e.Spawn("two-requests", func(p *sim.Proc) {
		var sessions [2]offload.Session
		for i := range sessions {
			sess, err := pl.Prepare(p, req)
			if err != nil {
				t.Error(err)
				return
			}
			if err := pl.Audit(); err != nil {
				t.Errorf("request %d open: %v", i, err)
			}
			sess.Release()
			sessions[i] = sess
		}
		if sessions[0] != sessions[1] || sessions[0] != &pl.slots.head.sess {
			t.Errorf("the runtime's two requests got sessions %p and %p, its slot holds %p", sessions[0], sessions[1], &pl.slots.head.sess)
		}
		if err := pl.Audit(); err != nil {
			t.Error(err)
		}
	})
	e.Run()
}

// TestQueuedRequestAllocatesOnlyItsWaiter: two requests take turns on one
// runtime, each Prepare parked until the other's Release hands the runtime
// over, so every request after the first is queued and served by a
// release. Each allocates one object, its seat in the wait ring, and only
// its bytes: the session is the slot's.
func TestQueuedRequestAllocatesOnlyItsWaiter(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	pl.SetObs(obs.NewRegistry())
	app, _ := workload.ByName(workload.NameLinpack)
	req := offload.ExecRequest{DeviceID: "d", AID: offload.AID(app.Name(), app.CodeSize()), App: app.Name()}
	serve := func(p *sim.Proc) {
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
		p.Sleep(time.Millisecond) // hold the runtime while the other request parks
		sess.Release()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	const rounds = 200
	done := false
	e.Spawn("other", func(p *sim.Proc) {
		for !done {
			serve(p)
		}
	})
	var before, after runtime.MemStats
	var queued int64
	e.Spawn("fence", func(p *sim.Proc) {
		serve(p) // the first one boots, pushes and grows the wait ring
		queued = -pl.om.queued.Value()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			serve(p)
		}
		runtime.ReadMemStats(&after)
		queued += pl.om.queued.Value()
		done = true
	})
	e.Run()
	if queued != 2*rounds {
		t.Fatalf("%d of the %d requests measured queued", queued, 2*rounds)
	}
	objects := float64(after.Mallocs-before.Mallocs) / (2 * rounds)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (2 * rounds)
	t.Logf("a queued request allocates %.2f objects, %.0f bytes", objects, bytes)
	// A waiter costs its malloc size class, which can exceed its size.
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		waiterSink = new(waiter)
	}
	runtime.ReadMemStats(&after)
	size := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	if objects > 1.05 || bytes > 1.05*size {
		t.Fatalf("a queued request allocates %.2f objects, %.0f bytes; its waiter is one, %.0f bytes", objects, bytes, size)
	}
}

// waiterSink keeps the waiters TestQueuedRequestAllocatesOnlyItsWaiter
// sizes on the heap.
var waiterSink *waiter
