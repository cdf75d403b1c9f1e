package android_test

import (
	"errors"
	"strings"
	"testing"

	"rattrap/internal/acd"
	"rattrap/internal/android"
	"rattrap/internal/container"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
)

// TestBootNeedsEveryDriverModule: each of the Android Container Driver's
// four modules is required on its own. With the other three loaded, a boot
// fails with ErrNoDevice naming a device of the missing module, leaves no
// host memory behind, and closes the handles it had opened, so the loaded
// modules unload.
func TestBootNeedsEveryDriverModule(t *testing.T) {
	mods := acd.Modules("3.18.0")
	for _, missing := range mods {
		t.Run(missing.Name, func(t *testing.T) {
			hn := newHarness()
			shared := sharedLayer(hn)
			var bootErr error
			hn.e.Spawn("t", func(p *sim.Proc) {
				for _, m := range mods {
					if m == missing {
						continue
					}
					if err := hn.k.Load(p, m); err != nil {
						t.Fatal(err)
					}
				}
				c, err := container.Create(p, hn.h, hn.k, container.DefaultConfig("c1", 96), shared.Layer)
				if err != nil {
					t.Fatal(err)
				}
				_, bootErr = android.Boot(p, c, android.BootConfig{Image: shared, Customized: true})
			})
			hn.e.Run()
			if !errors.Is(bootErr, kernel.ErrNoDevice) {
				t.Fatalf("boot without %s: err = %v, want ErrNoDevice", missing.Name, bootErr)
			}
			named := false
			for _, d := range missing.Devices {
				named = named || strings.Contains(bootErr.Error(), d.Name)
			}
			if !named {
				t.Errorf("boot without %s: %q names none of its devices", missing.Name, bootErr)
			}
			if n := hn.h.MemUsedMB(); n != 0 {
				t.Errorf("boot without %s leaked %d MB on the host", missing.Name, n)
			}
			if err := acd.UnloadAll(hn.k); err != nil {
				t.Errorf("UnloadAll after a boot without %s: %v", missing.Name, err)
			}
			if mods := hn.k.Lsmod(); len(mods) != 0 {
				t.Errorf("modules left loaded: %v", mods)
			}
		})
	}
}

func TestBootFailsUnderTightMemoryLimit(t *testing.T) {
	// A 48 MB cgroup cannot hold the customized runtime (≈96 MB): the boot
	// must fail with the container's limit error and release everything it
	// had already allocated.
	hn := newHarness()
	shared := sharedLayer(hn)
	var bootErr error
	hn.e.Spawn("t", func(p *sim.Proc) {
		if err := acd.LoadAll(p, hn.k, acd.Modules(hn.k.Release())); err != nil {
			t.Fatal(err)
		}
		c, err := container.Create(p, hn.h, hn.k, container.DefaultConfig("tiny", 48), shared.Layer)
		if err != nil {
			t.Fatal(err)
		}
		_, bootErr = android.Boot(p, c, android.BootConfig{Image: shared, Customized: true})
	})
	hn.e.Run()
	if !errors.Is(bootErr, container.ErrMemLimit) {
		t.Fatalf("err = %v, want ErrMemLimit", bootErr)
	}
	if hn.h.MemUsedMB() != 0 {
		t.Fatalf("failed boot leaked %d MB on the host", hn.h.MemUsedMB())
	}
	// With all device handles closed by the teardown, ACD can unload.
	if err := acd.UnloadAll(hn.k); err != nil {
		t.Fatalf("UnloadAll after failed boot: %v", err)
	}
}

func TestProcessesAndDescribe(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	hn.e.Spawn("t", func(p *sim.Proc) {
		_, rt := bootOptimized(t, hn, p, "c1", shared)
		procs := rt.Processes()
		names := make(map[string]bool, len(procs))
		for _, pr := range procs {
			names[pr.Name] = true
		}
		for _, want := range []string{"zygote", "servicemanager", "offloadcontroller", "activity"} {
			if !names[want] {
				t.Errorf("process %s missing from %v", want, procs)
			}
		}
		// The customized boot must NOT run UI services as processes.
		for _, removed := range []string{"surfaceflinger", "launcher", "telephony"} {
			if names[removed] {
				t.Errorf("customized boot runs removed service %s", removed)
			}
		}
	})
	hn.e.Run()
}

func TestFullBootRunsUIServices(t *testing.T) {
	hn := newHarness()
	hn.e.Spawn("t", func(p *sim.Proc) {
		_, rt := bootWO(t, hn, p, "full")
		names := make(map[string]bool)
		for _, pr := range rt.Processes() {
			names[pr.Name] = true
		}
		if !names["surfaceflinger"] || !names["launcher"] {
			t.Error("full boot missing UI services")
		}
	})
	hn.e.Run()
}

// The post-boot background scan reads every on-demand file of the image:
// once it is done, nothing on a customized shared layer is left unread.
func TestTouchOnDemandMarksAccess(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	if len(shared.OnDemand) == 0 {
		t.Fatal("customized image has no on-demand files")
	}
	hn.e.Spawn("t", func(p *sim.Proc) { bootOptimized(t, hn, p, "c1", shared) })
	hn.e.Run()
	if never := shared.Layer.NeverAccessedSize(); never != 0 {
		t.Fatalf("%d B of the shared layer never read after the scan", never)
	}
}

func TestExecuteOnDownedRuntimeFails(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	hn.e.Spawn("t", func(p *sim.Proc) {
		_, rt := bootOptimized(t, hn, p, "c1", shared)
		rt.Shutdown()
		if err := rt.LoadCode(p, "x", 1000); err == nil {
			t.Error("LoadCode on downed runtime succeeded")
		}
		rt.Shutdown() // second shutdown is a no-op
	})
	hn.e.Run()
}
