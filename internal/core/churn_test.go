package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rattrap/internal/android"
	"rattrap/internal/binder"
	"rattrap/internal/host"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// churnWorld is one seed's platform under the cold-path op generator, with
// what the checks need to remember about runtimes that are gone.
type churnWorld struct {
	pl       *Platform
	inflight int
	// every runtime booted, kept past its stop.
	rts  []*android.Runtime
	seen map[*slot]bool
	// steady is the page cache's file count at the first quiescent point
	// after a boot; every later one must match.
	steady int
}

// noteRuntimes records every runtime not seen before.
func (w *churnWorld) noteRuntimes() {
	w.pl.slots.each(func(sl *slot) {
		if w.seen[sl] || sl.rt == nil {
			return
		}
		w.seen[sl] = true
		w.rts = append(w.rts, sl.rt)
	})
}

// checkQuiescent holds once every request finished and every runtime was
// reaped: the books agree (Audit), the pool and its wait ring are empty, the
// page cache is as it was at the first such point (warehouse entries add
// nothing to it: their blocks sit on tmpfs), and no reaped runtime's offload
// controller answers in its Binder context any more.
func (w *churnWorld) checkQuiescent() error {
	pl := w.pl
	if err := pl.Audit(); err != nil {
		return err
	}
	if pl.RuntimeCount() != 0 || pl.QueueLength() != 0 {
		return fmt.Errorf("quiescent pool holds %d runtimes, %d waiters", pl.RuntimeCount(), pl.QueueLength())
	}
	rest := pl.Server.CachedFiles()
	switch {
	case len(w.seen) == 0:
		// Nothing has booted: the driver's .ko files, which a platform's
		// first boot caches for good, are not in yet.
	case w.steady < 0:
		w.steady = rest
	case rest != w.steady:
		return fmt.Errorf("page cache holds %d files, %d at the first quiescent point", rest, w.steady)
	}
	for _, rt := range w.rts {
		if reply, err := rt.CallService("offloadcontroller", 1, nil); !errors.Is(err, binder.ErrNoService) {
			return fmt.Errorf("a reaped runtime's offload controller answered %q, %v", reply, err)
		}
	}
	return nil
}

// Property: random cold-path churn — requests under new and known AIDs,
// code pushes (some abandoned, so waiters re-claim them), executes,
// releases, idle reaps, warehouse drops and cordons, with a warehouse small
// enough to keep evicting — leaves nothing behind. The books agree (Audit)
// at every step; at every quiescent point the pool is empty, the page cache
// is flat, and binder handles of reaped runtimes are dead.
func TestPropertyColdChurnLeavesNothingBehind(t *testing.T) {
	app, _ := workload.ByName(workload.NameLinpack)
	task := workload.Task{App: app.Name(), Method: "solve", ParamBytes: 500, Params: workload.EncodeLinpackParams(7, 8)}
	m, err := workload.NewRegistry().Execute(task)
	if err != nil {
		t.Fatal(err)
	}
	pre := &workload.Precomputed{Metrics: m}
	const idle = 2 * time.Second
	evictions, cordons, reclaims := 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		e := sim.NewEngine(seed)
		cfg := DefaultConfig(KindRattrap)
		cfg.MaxRuntimes = 3
		cfg.IdleTimeout = idle
		// Every AID here is one app at a nearby size: its blobs share the
		// library blocks and differ in a size-salted tail. Room for the
		// library and six tails keeps the warehouse evicting as often as
		// six whole blobs did before entries shared blocks.
		cfg.WarehouseCapacity = app.CodeSize() + 5*(app.CodeSize()%offload.ChunkSize)
		w := &churnWorld{pl: New(e, cfg), seen: map[*slot]bool{}, steady: -1}
		pl := w.pl
		rng := rand.New(rand.NewSource(seed))
		var aids []string
		push := func(p *sim.Proc, sess offload.Session, aid string, size host.Bytes) bool {
			if err := sess.PushCode(p, offload.CodePush{AID: aid, App: app.Name(), Size: size}); err != nil {
				t.Errorf("seed %d: push %s: %v", seed, aid, err)
				return false
			}
			return true
		}
		serve := func(p *sim.Proc, aid string, size host.Bytes, abandon, execute bool) {
			defer func() { w.inflight-- }()
			req := offload.ExecRequest{DeviceID: "dev", AID: aid, App: task.App, Method: task.Method,
				Params: task.Params, ParamBytes: task.ParamBytes}
			req.SetPrecomputed(pre)
			sess, err := pl.Prepare(p, req)
			if err != nil {
				t.Errorf("seed %d: prepare %s: %v", seed, aid, err)
				return
			}
			defer sess.Release()
			w.noteRuntimes()
			if sess.NeedCode() && (abandon || !push(p, sess, aid, size)) {
				return
			}
			for execute {
				res, err := sess.Execute(p)
				if errors.Is(err, offload.ErrCodeNeeded) {
					if push(p, sess, aid, size) {
						continue
					}
					return
				}
				if err != nil || res.Err != "" {
					t.Errorf("seed %d: execute %s: %v %q", seed, aid, err, res.Err)
				}
				return
			}
		}
		quiesce := func(p *sim.Proc) bool {
			for waited := time.Duration(0); w.inflight > 0; waited += 100 * time.Millisecond {
				if waited > time.Minute {
					t.Errorf("seed %d, at %v: %d requests still in flight, %d queued, pool %d", seed, e.Now(), w.inflight, pl.waitQ.len(), pl.slots.n)
					return false
				}
				p.Sleep(100 * time.Millisecond)
			}
			p.Sleep(3 * idle) // every reap and drain is due and done
			if err := w.checkQuiescent(); err != nil {
				t.Errorf("seed %d, at %v: %v", seed, e.Now(), err)
				return false
			}
			return true
		}
		e.Spawn("ops", func(p *sim.Proc) {
			for step := 0; step < 40; step++ {
				switch op := rng.Intn(12); {
				case op < 6: // a request, under a new AID or a known one
					var size host.Bytes
					if len(aids) == 0 || rng.Intn(3) == 0 {
						size = app.CodeSize() + host.Bytes(len(aids))
						aids = append(aids, offload.AID(app.Name(), size))
					} else {
						size = app.CodeSize() + host.Bytes(rng.Intn(len(aids)))
					}
					aid := offload.AID(app.Name(), size)
					abandon, execute := rng.Intn(6) == 0, rng.Intn(8) != 0
					w.inflight++
					p.E.Spawn("req", func(rp *sim.Proc) { serve(rp, aid, size, abandon, execute) })
				case op < 8:
					p.Sleep(time.Duration(rng.Intn(400)) * time.Millisecond)
				case op < 9:
					p.Sleep(idle + time.Duration(rng.Intn(1000))*time.Millisecond) // idle runtimes reap
				case op < 10: // drop a warehouse entry, as a migration away does
					if len(aids) > 0 {
						pl.warehouse.DropEntry(aids[rng.Intn(len(aids))])
					}
				case op < 11: // cordon a live runtime; it drains once idle
					var live []string
					pl.slots.each(func(sl *slot) { live = append(live, sl.id) })
					if len(live) > 0 {
						pl.CordonRuntime(live[rng.Intn(len(live))])
					}
				default:
					if !quiesce(p) {
						return
					}
				}
				if err := pl.Audit(); err != nil {
					t.Errorf("seed %d, step %d: %v", seed, step, err)
					return
				}
			}
			quiesce(p)
		})
		e.Run()
		if t.Failed() {
			return
		}
		if len(w.rts) == 0 {
			t.Fatalf("seed %d booted nothing; the test observes nothing", seed)
		}
		evictions += pl.warehouse.evictions
		cordons += pl.Cordoned()
		reclaims += len(w.seen)
	}
	if evictions == 0 || cordons == 0 {
		t.Fatalf("over 200 seeds: %d evictions, %d cordons; the generator misses an op", evictions, cordons)
	}
	t.Logf("200 seeds: %d runtimes reaped, %d warehouse evictions, %d cordons", reclaims, evictions, cordons)
}
