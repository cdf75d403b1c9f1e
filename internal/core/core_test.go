package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rattrap/internal/acd"
	"rattrap/internal/device"
	"rattrap/internal/host"
	"rattrap/internal/netsim"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

func newPlatform(kind Kind) (*sim.Engine, *Platform) {
	e := sim.NewEngine(1)
	return e, New(e, DefaultConfig(kind))
}

func mustDevice(t *testing.T, e *sim.Engine, name string) *device.Device {
	t.Helper()
	d, err := device.New(e, name, netsim.LANWiFi())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTableISetupMemoryDisk(t *testing.T) {
	type row struct {
		boot time.Duration
		mem  int
		disk host.Bytes
	}
	got := make(map[Kind]row)
	for _, kind := range []Kind{KindVM, KindRattrapWO, KindRattrap} {
		e, pl := newPlatform(kind)
		e.Spawn("t", func(p *sim.Proc) {
			info, err := pl.BootRuntime(p)
			if err != nil {
				t.Errorf("%v: %v", kind, err)
				return
			}
			got[kind] = row{boot: info.BootTime, mem: info.MemMB, disk: info.DiskBytes}
		})
		e.Run()
	}
	vm, wo, opt := got[KindVM], got[KindRattrapWO], got[KindRattrap]
	// Setup time bands around Table I's 28.72 s / 6.80 s / 1.75 s.
	if vm.boot < 25*time.Second || vm.boot > 33*time.Second {
		t.Errorf("VM setup = %v, want ≈28.72s", vm.boot)
	}
	if wo.boot < 5500*time.Millisecond || wo.boot > 8500*time.Millisecond {
		t.Errorf("CAC(W/O) setup = %v, want ≈6.80s", wo.boot)
	}
	if opt.boot < 1300*time.Millisecond || opt.boot > 2200*time.Millisecond {
		t.Errorf("CAC setup = %v, want ≈1.75s", opt.boot)
	}
	// Memory: 512 / 128-limited (≈110 used) / 96-limited (≈96 used).
	if vm.mem != 512 {
		t.Errorf("VM memory = %d, want 512", vm.mem)
	}
	if wo.mem < 100 || wo.mem > memLimitWO {
		t.Errorf("CAC(W/O) memory = %d, want ≈110 under the 128 limit", wo.mem)
	}
	if opt.mem < 90 || opt.mem > memLimitOpt {
		t.Errorf("CAC memory = %d, want ≈96", opt.mem)
	}
	// Disk: ≈1.1 GB / ≈1.02 GB / <7.1 MB.
	if gb := float64(vm.disk) / float64(host.GB); gb < 1.08 || gb > 1.12 {
		t.Errorf("VM disk = %.3f GB, want ≈1.1", gb)
	}
	if gb := float64(wo.disk) / float64(host.GB); gb < 1.0 || gb > 1.05 {
		t.Errorf("CAC(W/O) disk = %.3f GB, want ≈1.02", gb)
	}
	if mb := float64(opt.disk) / float64(host.MB); mb <= 0 || mb > 7.1 {
		t.Errorf("CAC disk = %.2f MB, want under 7.1", mb)
	}
	// Headline ratios.
	if sp := float64(vm.boot) / float64(opt.boot); sp < 13 || sp > 21 {
		t.Errorf("setup speedup = %.1fx, paper reports 16.41x", sp)
	}
	if sav := 1 - float64(opt.mem)/float64(vm.mem); sav < 0.75 {
		t.Errorf("memory saving = %.0f%%, paper reports ≥75%%", sav*100)
	}
	if sav := 1 - float64(opt.disk)/float64(vm.disk); sav < 0.79 {
		t.Errorf("disk saving = %.0f%%, paper reports ≥79%%", sav*100)
	}
}

// offloadOnce drives a full device->cloud offload of one task.
func offloadOnce(t *testing.T, e *sim.Engine, pl *Platform, d *device.Device, app workload.App) (offload.Phases, offload.Result) {
	t.Helper()
	var ph offload.Phases
	var res offload.Result
	e.Spawn("req", func(p *sim.Proc) {
		task := d.NewTask(app)
		var err error
		ph, res, err = d.Offload(p, task, app.CodeSize(), pl)
		if err != nil {
			t.Errorf("offload: %v", err)
		}
	})
	e.Run()
	return ph, res
}

func TestEndToEndOffloadAllWorkloads(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	d := mustDevice(t, e, "phone-1")
	for _, app := range workload.Apps() {
		_, res := offloadOnce(t, e, pl, d, app)
		if res.Err != "" || res.Output == "" {
			t.Errorf("%s: result %+v", app.Name(), res)
		}
	}
	if pl.RuntimeCount() != 1 {
		t.Errorf("pool grew to %d for serial requests", pl.RuntimeCount())
	}
	snap := pl.DB().Snapshot()
	if snap.TotalExec != 4 {
		t.Errorf("executed = %d, want 4", snap.TotalExec)
	}
}

func TestFirstRequestPaysBootLaterOnesDoNot(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	d := mustDevice(t, e, "phone-1")
	app, _ := workload.ByName(workload.NameChess)
	ph1, _ := offloadOnce(t, e, pl, d, app)
	ph2, _ := offloadOnce(t, e, pl, d, app)
	if ph1.RuntimePreparation < time.Second {
		t.Errorf("first request prep = %v, want ≥1s (cold boot)", ph1.RuntimePreparation)
	}
	if ph2.RuntimePreparation > 200*time.Millisecond {
		t.Errorf("second request prep = %v, want warm runtime", ph2.RuntimePreparation)
	}
	if ph2.DataTransfer >= ph1.DataTransfer {
		t.Errorf("code re-transferred: %v vs %v", ph2.DataTransfer, ph1.DataTransfer)
	}
}

func TestWarehouseEliminatesDuplicateCodeTransfer(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	app, _ := workload.ByName(workload.NameChess)
	aid := offload.AID(app.Name(), app.CodeSize())
	e.Spawn("t", func(p *sim.Proc) {
		d := mustDeviceIn(t, e, "phone-1")
		// First request: cold, pushes code.
		task := d.NewTask(app)
		req := offload.ExecRequest{DeviceID: "phone-1", AID: aid, App: task.App, Method: task.Method,
			Params: task.Params, ParamBytes: task.ParamBytes}
		s1, err := pl.Prepare(p, req)
		if err != nil {
			t.Fatal(err)
		}
		if !s1.NeedCode() {
			t.Fatal("first request should need code")
		}
		if err := s1.PushCode(p, offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Execute(p); err != nil {
			t.Fatal(err)
		}
		// Keep runtime 1 occupied so the next request lands on a fresh
		// runtime that has never seen the code.
		s2, err := pl.Prepare(p, req) // s1 not yet released -> boots #2
		if err != nil {
			t.Fatal(err)
		}
		if s2.NeedCode() {
			t.Error("warehouse should satisfy the second runtime's code")
		}
		if res, err := s2.Execute(p); err != nil || res.Err != "" {
			t.Fatalf("execute on second runtime: %v %v", res, err)
		}
		s1.Release()
		s2.Release()
		if pl.RuntimeCount() != 2 {
			t.Errorf("runtimes = %d, want 2", pl.RuntimeCount())
		}
		entries, hits, _ := pl.Warehouse().Stats()
		if entries != 1 || hits < 1 {
			t.Errorf("warehouse entries=%d hits=%d", entries, hits)
		}
		if cids := pl.warehouse.entries[aid].CIDs; len(cids) != 2 {
			t.Errorf("CIDs for %s = %v, want both runtimes", aid, cids)
		}
	})
	e.Run()
}

func mustDeviceIn(t *testing.T, e *sim.Engine, name string) *device.Device {
	t.Helper()
	d, err := device.New(e, name, netsim.LANWiFi())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestVMCloudRetransfersCodePerRuntime(t *testing.T) {
	e, pl := newPlatform(KindVM)
	app, _ := workload.ByName(workload.NameChess)
	aid := offload.AID(app.Name(), app.CodeSize())
	e.Spawn("t", func(p *sim.Proc) {
		d := mustDeviceIn(t, e, "phone-1")
		task := d.NewTask(app)
		req := offload.ExecRequest{DeviceID: "phone-1", AID: aid, App: task.App, Method: task.Method,
			Params: task.Params, ParamBytes: task.ParamBytes}
		s1, err := pl.Prepare(p, req)
		if err != nil {
			t.Fatal(err)
		}
		if !s1.NeedCode() {
			t.Fatal("first VM should need code")
		}
		s1.PushCode(p, offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()})
		s1.Execute(p)
		s2, err := pl.Prepare(p, req) // second VM while the first is held
		if err != nil {
			t.Fatal(err)
		}
		if !s2.NeedCode() {
			t.Error("VM cloud has no warehouse: second VM must ask for code again")
		}
		s1.Release()
		s2.Release()
	})
	e.Run()
}

func TestDispatcherAffinityRoutesToLoadedRuntime(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	chess, _ := workload.ByName(workload.NameChess)
	linpack, _ := workload.ByName(workload.NameLinpack)
	e.Spawn("t", func(p *sim.Proc) {
		d := mustDeviceIn(t, e, "phone-1")
		// Boot two runtimes: chess code on #1, linpack on #2.
		run := func(app workload.App, hold offload.Session) offload.Session {
			task := d.NewTask(app)
			req := offload.ExecRequest{AID: offload.AID(app.Name(), app.CodeSize()),
				App: task.App, Method: task.Method, Params: task.Params, ParamBytes: task.ParamBytes}
			s, err := pl.Prepare(p, req)
			if err != nil {
				t.Fatal(err)
			}
			if s.NeedCode() {
				s.PushCode(p, offload.CodePush{AID: req.AID, App: app.Name(), Size: app.CodeSize()})
			}
			if _, err := s.Execute(p); err != nil {
				t.Fatal(err)
			}
			return s
		}
		s1 := run(chess, nil)
		s2 := run(linpack, nil) // while s1 held -> second runtime
		s1.Release()
		s2.Release()
		// Both idle now; a chess request must go to runtime #1.
		before := map[string]int{}
		for _, r := range pl.DB().List() {
			before[r.CID] = r.Executed
		}
		s3 := run(chess, nil)
		s3.Release()
		for _, r := range pl.DB().List() {
			if r.Executed != before[r.CID] {
				if !strings.HasSuffix(r.CID, "-1") {
					t.Errorf("chess landed on %s, want the runtime that loaded it", r.CID)
				}
			}
		}
	})
	e.Run()
}

func TestPoolCapAndFIFOQueue(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	app, _ := workload.ByName(workload.NameLinpack)
	done := make([]sim.Time, 0, 3)
	for i := 0; i < 3; i++ {
		d := mustDeviceIn(t, e, "phone-"+string(rune('a'+i)))
		e.Spawn("req", func(p *sim.Proc) {
			task := d.NewTask(app)
			if _, _, err := d.Offload(p, task, app.CodeSize(), pl); err != nil {
				t.Errorf("offload: %v", err)
			}
			done = append(done, e.Now())
		})
	}
	e.Run()
	if pl.RuntimeCount() != 1 {
		t.Fatalf("pool = %d, want 1", pl.RuntimeCount())
	}
	if len(done) != 3 {
		t.Fatalf("completed = %d", len(done))
	}
	for i := 1; i < len(done); i++ {
		if done[i] <= done[i-1] {
			t.Fatalf("queued requests completed out of order: %v", done)
		}
	}
	if pl.QueueLength() != 0 {
		t.Fatalf("queue not drained: %d", pl.QueueLength())
	}
}

func TestAccessControllerViolationsBlockApp(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	app, _ := workload.ByName(workload.NameOCR)
	e.Spawn("t", func(p *sim.Proc) {
		// Seed a hostile permission table: analysis concluded this app may
		// execute nothing.
		pl.access.Analyze(p, pl.Server, app.Name(), nil)
		d := mustDeviceIn(t, e, "phone-1")
		var lastErr string
		for i := 0; i < 4; i++ {
			task := d.NewTask(app)
			req := offload.ExecRequest{AID: offload.AID(app.Name(), app.CodeSize()),
				App: task.App, Method: task.Method, Params: task.Params,
				ParamBytes: task.ParamBytes, FileBytes: task.FileBytes}
			s, err := pl.Prepare(p, req)
			if err != nil {
				if !errors.Is(err, ErrAppBlocked) {
					t.Fatalf("prepare error = %v, want ErrAppBlocked", err)
				}
				if i < 2 {
					t.Fatalf("blocked after only %d requests (threshold 3)", i)
				}
				return // blocked as designed
			}
			if s.NeedCode() {
				s.PushCode(p, offload.CodePush{AID: req.AID, App: app.Name(), Size: app.CodeSize()})
			}
			res, err := s.Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			lastErr = res.Err
			s.Release()
		}
		t.Fatalf("app never blocked; last result error: %s", lastErr)
	})
	e.Run()
}

// stopAll stops every runtime in the pool, as an operator draining the
// platform by hand would.
func stopAll(p *sim.Proc, pl *Platform) error {
	var ids []string
	pl.slots.each(func(sl *slot) { ids = append(ids, sl.id) })
	for _, id := range ids {
		if err := pl.StopRuntime(p, id); err != nil {
			return err
		}
	}
	return nil
}

func TestStopAllUnloadsACD(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	d := mustDevice(t, e, "phone-1")
	app, _ := workload.ByName(workload.NameChess)
	offloadOnce(t, e, pl, d, app)
	if !pl.Kernel.Loaded(acd.ModBinder) {
		t.Fatal("ACD not loaded while container runs")
	}
	e.Spawn("stop", func(p *sim.Proc) {
		if err := stopAll(p, pl); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if pl.RuntimeCount() != 0 {
		t.Fatalf("runtimes remain: %d", pl.RuntimeCount())
	}
	if pl.Kernel.Loaded(acd.ModBinder) {
		t.Fatal("ACD still loaded after last container stopped")
	}
	if pl.Server.MemUsedMB() != 0 {
		t.Fatalf("server memory leaked: %d MB", pl.Server.MemUsedMB())
	}
}

func TestRattrapRuntimesShareOffloadIO(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	e.Spawn("t", func(p *sim.Proc) {
		i1, err := pl.BootRuntime(p)
		if err != nil {
			t.Fatal(err)
		}
		i2, err := pl.BootRuntime(p)
		if err != nil {
			t.Fatal(err)
		}
		_ = i1
		_ = i2
	})
	e.Run()
	pl.slots.each(func(sl *slot) {
		if sl.rt.OffloadFS() != pl.OffloadIO() {
			t.Fatal("runtime not wired to the shared offloading I/O layer")
		}
	})
}

func TestSecondOptimizedBootIsWarm(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	var b1, b2 time.Duration
	e.Spawn("t", func(p *sim.Proc) {
		i1, _ := pl.BootRuntime(p)
		i2, _ := pl.BootRuntime(p)
		b1, b2 = i1.BootTime, i2.BootTime
	})
	e.Run()
	// Both boots read /system from the pre-warmed shared layer: both fast
	// and nearly identical.
	if b1 > 2200*time.Millisecond || b2 > 2200*time.Millisecond {
		t.Fatalf("boots %v / %v exceed the optimized band", b1, b2)
	}
	diff := float64(b1-b2) / float64(b1)
	if diff < -0.2 || diff > 0.2 {
		t.Fatalf("warm boots differ too much: %v vs %v", b1, b2)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() []time.Duration {
		e := sim.NewEngine(99)
		pl := New(e, DefaultConfig(KindRattrap))
		d, _ := device.New(e, "phone-1", netsim.LANWiFi())
		var out []time.Duration
		for _, app := range workload.Apps() {
			app := app
			e.Spawn("req", func(p *sim.Proc) {
				task := d.NewTask(app)
				ph, _, err := d.Offload(p, task, app.CodeSize(), pl)
				if err == nil {
					out = append(out, ph.Response())
				}
			})
			e.Run()
		}
		return out
	}
	a, b := run(), run()
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic response at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestKindStrings(t *testing.T) {
	if KindVM.String() != "VM" || KindRattrapWO.String() != "Rattrap(W/O)" || KindRattrap.String() != "Rattrap" {
		t.Fatal("Kind.String mismatch")
	}
	if len(Kinds()) != 3 {
		t.Fatal("Kinds() should list all three platforms")
	}
}

func TestIdleReclamation(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.IdleTimeout = 5 * time.Second
	pl := New(e, cfg)
	d := mustDevice(t, e, "phone-1")
	app, _ := workload.ByName(workload.NameChess)
	var prep1, prep2, prep3 time.Duration
	e.Spawn("flow", func(p *sim.Proc) {
		task := d.NewTask(app)
		ph, _, err := d.Offload(p, task, app.CodeSize(), pl)
		if err != nil {
			t.Error(err)
			return
		}
		prep1 = ph.RuntimePreparation
		// Second request within the idle window: the runtime is warm.
		p.Sleep(2 * time.Second)
		ph, _, err = d.Offload(p, d.NewTask(app), app.CodeSize(), pl)
		if err != nil {
			t.Error(err)
			return
		}
		prep2 = ph.RuntimePreparation
		// Wait far past the idle timeout: the runtime must be reclaimed
		// and the third request boots a fresh container.
		p.Sleep(30 * time.Second)
		if pl.RuntimeCount() != 0 {
			t.Errorf("runtimes = %d after idle timeout, want 0", pl.RuntimeCount())
		}
		if pl.Kernel.Loaded(acd.ModBinder) {
			t.Error("ACD still loaded after reclaim")
		}
		ph, _, err = d.Offload(p, d.NewTask(app), app.CodeSize(), pl)
		if err != nil {
			t.Error(err)
			return
		}
		prep3 = ph.RuntimePreparation
	})
	e.Run()
	if prep1 < time.Second {
		t.Errorf("first prep = %v, want a cold boot", prep1)
	}
	if prep2 > 200*time.Millisecond {
		t.Errorf("second prep = %v, want warm", prep2)
	}
	if prep3 < time.Second {
		t.Errorf("third prep = %v, want cold again after reclamation", prep3)
	}
	// The code survives in the warehouse across reclamation: no third
	// transfer happened (check warehouse, not the runtime).
	if entries, _, _ := pl.Warehouse().Stats(); entries != 1 {
		t.Errorf("warehouse entries = %d", entries)
	}
}

func TestIdleReclamationSparesBusyRuntimes(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.IdleTimeout = 3 * time.Second
	pl := New(e, cfg)
	d := mustDevice(t, e, "phone-1")
	app, _ := workload.ByName(workload.NameLinpack)
	e.Spawn("flow", func(p *sim.Proc) {
		// Keep the runtime active with requests spaced inside the window:
		// it must never be reclaimed between them.
		for i := 0; i < 4; i++ {
			if _, _, err := d.Offload(p, d.NewTask(app), app.CodeSize(), pl); err != nil {
				t.Error(err)
				return
			}
			if pl.RuntimeCount() != 1 {
				t.Errorf("request %d: runtimes = %d, want the same warm one", i, pl.RuntimeCount())
			}
			p.Sleep(2 * time.Second)
		}
	})
	e.Run()
}
