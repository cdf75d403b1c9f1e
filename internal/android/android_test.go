package android_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rattrap/internal/acd"
	"rattrap/internal/android"
	"rattrap/internal/container"
	"rattrap/internal/host"
	"rattrap/internal/image"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
	"rattrap/internal/vm"
	"rattrap/internal/workload"
)

type harness struct {
	e *sim.Engine
	h *host.Host
	k *kernel.Kernel
}

func newHarness() *harness {
	e := sim.NewEngine(1)
	h := host.New(e, host.CloudServer())
	return &harness{e: e, h: h, k: kernel.New(e, h, "3.18.0")}
}

// bootVM provisions and boots an Android-x86 VM.
func bootVM(t *testing.T, hn *harness, p *sim.Proc, name string) (*vm.VM, *android.Runtime) {
	t.Helper()
	manifest := image.AndroidX86()
	v, err := vm.Create(p, hn.h, hn.e, vm.DefaultConfig(name), manifest)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := android.Boot(p, v, v.BootConfig())
	if err != nil {
		t.Fatal(err)
	}
	return v, rt
}

// bootWO creates a non-optimized Cloud Android Container: private full
// rootfs, stock Android, ACD loaded.
func bootWO(t *testing.T, hn *harness, p *sim.Proc, name string) (*container.Container, *android.Runtime) {
	t.Helper()
	if err := acd.LoadAll(p, hn.k, acd.Modules(hn.e, hn.k.Release())); err != nil {
		t.Fatal(err)
	}
	manifest := image.AndroidX86().ForContainer()
	// The rootfs copy was just provisioned from the base image, so its
	// pages are cache-resident (as on the measured testbed).
	rootfs := manifest.BuildLayer("rootfs:"+name, true)
	rootfs.Layer.WarmCacheOn(hn.h)
	c, err := container.Create(p, hn.h, hn.k, container.DefaultConfig(name, 128), unionfs.NewLayer(name+"-delta", false), rootfs.Layer)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := android.Boot(p, c, android.BootConfig{Image: rootfs, Customized: false})
	if err != nil {
		t.Fatal(err)
	}
	return c, rt
}

// bootOptimized creates an optimized Cloud Android Container over a warmed
// shared layer.
func bootOptimized(t *testing.T, hn *harness, p *sim.Proc, name string, shared *image.Image) (*container.Container, *android.Runtime) {
	t.Helper()
	if err := acd.LoadAll(p, hn.k, acd.Modules(hn.e, hn.k.Release())); err != nil {
		t.Fatal(err)
	}
	c, err := container.Create(p, hn.h, hn.k, container.DefaultConfig(name, 96), unionfs.NewLayer(name+"-delta", false), shared.Layer)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := android.Boot(p, c, android.BootConfig{Image: shared, Customized: true})
	if err != nil {
		t.Fatal(err)
	}
	return c, rt
}

func sharedLayer(hn *harness) *image.Image {
	shared := image.AndroidX86().Customized().BuildLayer("shared-android", true)
	shared.Layer.WarmCacheOn(hn.h) // platform warms the shared layer at startup
	return shared
}

func TestVMBootAround28s(t *testing.T) {
	hn := newHarness()
	var boot time.Duration
	var reserved int
	hn.e.Spawn("test", func(p *sim.Proc) {
		v, rt := bootVM(t, hn, p, "vm-1")
		boot = rt.BootTime() + v.CreateTime()
		reserved = v.MemReservedMB()
	})
	hn.e.Run()
	if boot < 25*time.Second || boot > 33*time.Second {
		t.Fatalf("VM boot = %v, want ≈28.7s (Table I)", boot)
	}
	if reserved != 512 {
		t.Fatalf("VM reservation = %d MB, want 512", reserved)
	}
}

func TestContainerWOBootAround7s(t *testing.T) {
	hn := newHarness()
	var boot time.Duration
	var peak int
	hn.e.Spawn("test", func(p *sim.Proc) {
		c, rt := bootWO(t, hn, p, "cac-wo-1")
		boot = rt.BootTime() + c.CreateTime()
		peak = c.MemPeakMB()
	})
	hn.e.Run()
	if boot < 5500*time.Millisecond || boot > 8*time.Second {
		t.Fatalf("CAC(W/O) boot = %v, want ≈6.8s (Table I)", boot)
	}
	// Paper: maximum memory usage 110.56 MB during boot -> 128 MB limit.
	if peak < 105 || peak > 118 {
		t.Fatalf("CAC(W/O) peak memory = %d MB, want ≈110.56", peak)
	}
}

func TestOptimizedCACBootUnder2s(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	var boot time.Duration
	var peak int
	hn.e.Spawn("test", func(p *sim.Proc) {
		c, rt := bootOptimized(t, hn, p, "cac-1", shared)
		boot = rt.BootTime() + c.CreateTime()
		peak = c.MemPeakMB()
	})
	hn.e.Run()
	if boot < 1200*time.Millisecond || boot > 2100*time.Millisecond {
		t.Fatalf("optimized CAC boot = %v, want ≈1.75s (Table I)", boot)
	}
	// Paper: maximum memory usage 96.35 MB -> 96 MB configured.
	if peak < 92 || peak > 100 {
		t.Fatalf("optimized CAC peak memory = %d MB, want ≈96.35", peak)
	}
}

func TestTableIRatios(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	var vmBoot, woBoot, optBoot time.Duration
	hn.e.Spawn("test", func(p *sim.Proc) {
		v, rt := bootVM(t, hn, p, "vm-1")
		vmBoot = rt.BootTime() + v.CreateTime()
		c1, rt1 := bootWO(t, hn, p, "wo-1")
		woBoot = rt1.BootTime() + c1.CreateTime()
		c2, rt2 := bootOptimized(t, hn, p, "opt-1", shared)
		optBoot = rt2.BootTime() + c2.CreateTime()
	})
	hn.e.Run()
	woSpeedup := float64(vmBoot) / float64(woBoot)
	optSpeedup := float64(vmBoot) / float64(optBoot)
	if woSpeedup < 3.5 || woSpeedup > 5.2 {
		t.Errorf("W/O setup speedup = %.2fx, paper reports 4.22x", woSpeedup)
	}
	if optSpeedup < 13 || optSpeedup > 21 {
		t.Errorf("optimized setup speedup = %.2fx, paper reports 16.41x", optSpeedup)
	}
}

func TestContainerBootFailsWithoutACD(t *testing.T) {
	hn := newHarness() // no LoadAll
	rootfs := image.AndroidX86().ForContainer().BuildLayer("rootfs", true)
	var bootErr error
	hn.e.Spawn("test", func(p *sim.Proc) {
		c, err := container.Create(p, hn.h, hn.k, container.DefaultConfig("c1", 128), unionfs.NewLayer("d", false), rootfs.Layer)
		if err != nil {
			t.Fatal(err)
		}
		_, bootErr = android.Boot(p, c, android.BootConfig{Image: rootfs})
	})
	hn.e.Run()
	if !errors.Is(bootErr, kernel.ErrNoDevice) {
		t.Fatalf("boot without Android Container Driver: err = %v, want ErrNoDevice", bootErr)
	}
	if hn.h.MemUsedMB() != 0 {
		t.Fatalf("failed boot leaked %d MB", hn.h.MemUsedMB())
	}
}

func TestBinderServicesPerContainer(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	hn.e.Spawn("test", func(p *sim.Proc) {
		_, rt1 := bootOptimized(t, hn, p, "c1", shared)
		_, rt2 := bootOptimized(t, hn, p, "c2", shared)
		// Both runtimes registered "offloadcontroller" in their own
		// namespaces with no collision.
		if _, err := rt1.CallService("offloadcontroller", 0, nil); err != nil {
			t.Error(err)
		}
		if _, err := rt2.CallService("offloadcontroller", 0, nil); err != nil {
			t.Error(err)
		}
		if rt1.Binder() == rt2.Binder() {
			t.Error("containers share a Binder context")
		}
	})
	hn.e.Run()
}

func TestCustomizedFakesRemovedServices(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	hn.e.Spawn("test", func(p *sim.Proc) {
		_, opt := bootOptimized(t, hn, p, "c1", shared)
		reply, err := opt.CallService("surfaceflinger", 0, nil)
		if err != nil {
			t.Errorf("faked UI service errored: %v", err)
		}
		if !strings.Contains(string(reply), "faked") {
			t.Errorf("reply = %q, want faked direct return", reply)
		}
		// A full boot really runs the service.
		_, wo := bootWO(t, hn, p, "c2")
		reply, err = wo.CallService("surfaceflinger", 0, nil)
		if err != nil || !strings.Contains(string(reply), "ok") {
			t.Errorf("full boot surfaceflinger: %q, %v", reply, err)
		}
	})
	hn.e.Run()
}

func TestExecuteRunsRealWorkload(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	reg := workload.NewRegistry()
	rng := rand.New(rand.NewSource(4))
	hn.e.Spawn("test", func(p *sim.Proc) {
		_, rt := bootOptimized(t, hn, p, "c1", shared)
		app, _ := workload.ByName(workload.NameLinpack)
		task := app.NewTask(rng, 0)
		if err := rt.LoadCode(p, task.App, app.CodeSize()); err != nil {
			t.Fatal(err)
		}
		res, err := rt.Execute(p, task.App, task, reg)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Metrics.Output, "residual=") {
			t.Errorf("output = %q", res.Metrics.Output)
		}
		if res.ComputeSeconds <= 0 {
			t.Error("no compute time charged")
		}
		if rt.Executed() != 1 {
			t.Errorf("executed = %d", rt.Executed())
		}
	})
	hn.e.Run()
}

func TestExecuteRequiresLoadedCode(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	reg := workload.NewRegistry()
	rng := rand.New(rand.NewSource(4))
	hn.e.Spawn("test", func(p *sim.Proc) {
		_, rt := bootOptimized(t, hn, p, "c1", shared)
		app, _ := workload.ByName(workload.NameChess)
		if _, err := rt.Execute(p, app.Name(), app.NewTask(rng, 0), reg); err == nil {
			t.Error("execute without loaded code succeeded")
		}
	})
	hn.e.Run()
}

func TestCodeLoadCachedPerRuntime(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	hn.e.Spawn("test", func(p *sim.Proc) {
		_, rt := bootOptimized(t, hn, p, "c1", shared)
		app, _ := workload.ByName(workload.NameChess)
		t0 := hn.e.Now()
		rt.LoadCode(p, "ChessGame", app.CodeSize())
		first := hn.e.Now() - t0
		t0 = hn.e.Now()
		rt.LoadCode(p, "ChessGame", app.CodeSize())
		second := hn.e.Now() - t0
		if first <= 0 {
			t.Error("first load free")
		}
		if second != 0 {
			t.Errorf("reload of cached code cost %v", second)
		}
	})
	hn.e.Run()
}

func TestTmpfsOffloadIOFasterThanRootfs(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	reg := workload.NewRegistry()
	rng := rand.New(rand.NewSource(7))
	app, _ := workload.ByName(workload.NameVirusScan)
	task := app.NewTask(rng, 0)
	var exclusive, sharedIO float64
	hn.e.Spawn("test", func(p *sim.Proc) {
		_, rt1 := bootOptimized(t, hn, p, "c1", shared)
		rt1.LoadCode(p, task.App, app.CodeSize())
		r1, err := rt1.Execute(p, task.App, task, reg) // offload I/O on rootfs upper (disk)
		if err != nil {
			t.Fatal(err)
		}
		exclusive = r1.IOSeconds

		_, rt2 := bootOptimized(t, hn, p, "c2", shared)
		rt2.LoadCode(p, task.App, app.CodeSize())
		tmp := unionfs.NewTmpfs("offload-io")
		m, _ := unionfs.NewMount(hn.h, "offload-io", tmp)
		rt2.SetOffloadFS(m) // Sharing Offloading I/O on tmpfs
		r2, err := rt2.Execute(p, task.App, task, reg)
		if err != nil {
			t.Fatal(err)
		}
		sharedIO = r2.IOSeconds
	})
	hn.e.Run()
	if sharedIO >= exclusive {
		t.Fatalf("tmpfs offloading I/O (%.3fs) not faster than exclusive (%.3fs)", sharedIO, exclusive)
	}
}

func TestShutdownReleasesEverything(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	hn.e.Spawn("test", func(p *sim.Proc) {
		_, rt := bootOptimized(t, hn, p, "c1", shared)
		if rt.MemMB() == 0 {
			t.Fatal("no memory while up")
		}
		rt.Shutdown()
		if rt.Up() {
			t.Error("runtime still up")
		}
		// With handles closed, ACD modules can unload.
		if err := acd.UnloadAll(hn.k); err != nil {
			t.Errorf("UnloadAll after shutdown: %v", err)
		}
	})
	hn.e.Run()
	if hn.h.MemUsedMB() != 0 {
		t.Fatalf("host memory leaked: %d MB", hn.h.MemUsedMB())
	}
}

func TestExecutionDeterministicAcrossEnvironments(t *testing.T) {
	// A task offloaded to a VM and to a container returns identical output.
	hn := newHarness()
	shared := sharedLayer(hn)
	reg := workload.NewRegistry()
	rng := rand.New(rand.NewSource(12))
	app, _ := workload.ByName(workload.NameOCR)
	task := app.NewTask(rng, 0)
	var out1, out2 string
	hn.e.Spawn("test", func(p *sim.Proc) {
		_, vrt := bootVM(t, hn, p, "vm-1")
		vrt.LoadCode(p, task.App, app.CodeSize())
		r1, err := vrt.Execute(p, task.App, task, reg)
		if err != nil {
			t.Fatal(err)
		}
		out1 = r1.Metrics.Output

		_, crt := bootOptimized(t, hn, p, "c1", shared)
		crt.LoadCode(p, task.App, app.CodeSize())
		r2, err := crt.Execute(p, task.App, task, reg)
		if err != nil {
			t.Fatal(err)
		}
		out2 = r2.Metrics.Output
	})
	hn.e.Run()
	if out1 != out2 || out1 == "" {
		t.Fatalf("divergent outputs: %q vs %q", out1, out2)
	}
}

func TestVMExecSlowerThanContainer(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	reg := workload.NewRegistry()
	rng := rand.New(rand.NewSource(3))
	app, _ := workload.ByName(workload.NameVirusScan)
	task := app.NewTask(rng, 0)
	var vmT, cT float64
	hn.e.Spawn("test", func(p *sim.Proc) {
		_, vrt := bootVM(t, hn, p, "vm-1")
		vrt.LoadCode(p, task.App, app.CodeSize())
		r1, _ := vrt.Execute(p, task.App, task, reg)
		vmT = r1.ComputeSeconds + r1.IOSeconds
		_, crt := bootOptimized(t, hn, p, "c1", shared)
		crt.LoadCode(p, task.App, app.CodeSize())
		tmp := unionfs.NewTmpfs("oio")
		m, _ := unionfs.NewMount(hn.h, "oio", tmp)
		crt.SetOffloadFS(m)
		r2, _ := crt.Execute(p, task.App, task, reg)
		cT = r2.ComputeSeconds + r2.IOSeconds
	})
	hn.e.Run()
	ratio := vmT / cT
	if ratio < 1.05 || ratio > 1.9 {
		t.Fatalf("VirusScan exec speedup container vs VM = %.2fx, want within paper band (≈1.4x)", ratio)
	}
}
