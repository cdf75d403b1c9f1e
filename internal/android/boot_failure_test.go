package android_test

import (
	"errors"
	"strings"
	"testing"

	"rattrap/internal/acd"
	"rattrap/internal/android"
	"rattrap/internal/container"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
)

func TestBootFailsUnderTightMemoryLimit(t *testing.T) {
	// A 48 MB cgroup cannot hold the customized runtime (≈96 MB): the boot
	// must fail with the container's limit error and release everything it
	// had already allocated.
	hn := newHarness()
	shared := sharedLayer(hn)
	var bootErr error
	hn.e.Spawn("t", func(p *sim.Proc) {
		if err := acd.LoadAll(p, hn.k, acd.Modules(hn.e, hn.k.Release())); err != nil {
			t.Fatal(err)
		}
		c, err := container.Create(p, hn.h, hn.k, container.DefaultConfig("tiny", 48),
			unionfs.NewLayer("tiny-delta", false), shared.Layer)
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
		desc := rt.Describe()
		if !strings.Contains(desc, "c1") || !strings.Contains(desc, "mem=") {
			t.Errorf("describe = %q", desc)
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

func TestTouchOnDemandMarksAccess(t *testing.T) {
	hn := newHarness()
	shared := sharedLayer(hn)
	hn.e.Spawn("t", func(p *sim.Proc) {
		_, rt := bootOptimized(t, hn, p, "c1", shared)
		n := rt.OnDemandCount()
		if n == 0 {
			t.Fatal("customized image has no on-demand files")
		}
		for i := 0; i < n; i++ {
			if err := rt.TouchOnDemand(p, i); err != nil {
				t.Fatalf("touch %d: %v", i, err)
			}
		}
	})
	hn.e.Run()
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
