package container

import (
	"errors"
	"fmt"
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
)

func newHarness() (*sim.Engine, *host.Host, *kernel.Kernel) {
	e := sim.NewEngine(1)
	h := host.New(e, host.CloudServer())
	return e, h, kernel.New(e, h, "3.18.0")
}

func TestCreateFastAndRunning(t *testing.T) {
	e, h, k := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		start := p.E.Now()
		c, err := Create(p, h, k, DefaultConfig("c1", 128))
		if err != nil {
			t.Fatal(err)
		}
		if c.State() != StateRunning {
			t.Errorf("state = %v", c.State())
		}
		if took := p.E.Now() - start; took <= 0 || took.Seconds() > 1 {
			t.Errorf("create time = %v, want O(100ms)", took)
		}
	})
	e.Run()
}

func TestConfigValidation(t *testing.T) {
	e, h, k := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		if _, err := Create(p, h, k, Config{Name: "x", MemLimitMB: 0, CPUEff: 0.9, IOEff: 0.9}); err == nil {
			t.Error("zero memory limit accepted")
		}
		if _, err := Create(p, h, k, Config{Name: "x", MemLimitMB: 64, CPUEff: 1.5, IOEff: 0.9}); err == nil {
			t.Error("efficiency > 1 accepted")
		}
	})
	e.Run()
}

func TestCgroupMemoryLimit(t *testing.T) {
	e, h, k := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		c, _ := Create(p, h, k, DefaultConfig("c1", 100))
		if err := c.AllocMem(60); err != nil {
			t.Fatal(err)
		}
		if err := c.AllocMem(50); !errors.Is(err, ErrMemLimit) {
			t.Errorf("over-limit alloc: err = %v, want ErrMemLimit", err)
		}
		if h.MemUsedMB() != 60 {
			t.Errorf("host charged %d MB, want 60", h.MemUsedMB())
		}
		c.FreeMem(60)
		if h.MemUsedMB() != 0 {
			t.Errorf("host still charged %d MB", h.MemUsedMB())
		}
	})
	e.Run()
}

func TestStopReleasesMemory(t *testing.T) {
	e, h, k := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		c, _ := Create(p, h, k, DefaultConfig("c1", 100))
		c.AllocMem(40)
		if err := c.Stop(p); err != nil {
			t.Fatal(err)
		}
		if c.State() != StateStopped {
			t.Errorf("state = %v", c.State())
		}
		if h.MemUsedMB() != 0 {
			t.Errorf("stop leaked %d MB", h.MemUsedMB())
		}
		if err := c.Stop(p); err == nil {
			t.Error("double stop succeeded")
		}
		if err := c.OpenDevice("/dev/binder", new(kernel.Handle)); err == nil {
			t.Error("device open on stopped container succeeded")
		}
	})
	e.Run()
}

func TestDiskUsageIsUpperLayerOnly(t *testing.T) {
	e, h, k := newHarness()
	shared := unionfs.NewLayer("shared", true)
	shared.AddFile("/system/framework/framework.jar", 300*host.MB, nil)
	e.Spawn("t", func(p *sim.Proc) {
		c, _ := Create(p, h, k, DefaultConfig("c1", 100), shared)
		c.FS().Write(p, "/data/props", 5*host.MB, nil, 1.0)
		if got := c.DiskUsageBytes(); got != 5*host.MB {
			t.Errorf("disk usage = %d MB, want 5 (private delta only)", got/host.MB)
		}
	})
	e.Run()
}

// A container owns its private delta: writes land in a layer named after it
// above the lowers, and a clone stacks its own delta over the template and
// the source's lowers. Creating either allocates the container and its
// delta's file table, nothing more.
func TestContainerOwnsItsDelta(t *testing.T) {
	e, h, k := newHarness()
	shared := unionfs.NewLayer("shared", true)
	shared.AddFile("/system/framework/framework.jar", 300*host.MB, nil)
	e.Spawn("t", func(p *sim.Proc) {
		src, err := Create(p, h, k, DefaultConfig("src", 100), shared)
		if err != nil {
			t.Fatal(err)
		}
		src.FS().Write(p, "/data/local.prop", host.MB, nil, 1.0)
		if f, _ := src.FS().Stat("/data/local.prop"); f.Layer != "src" {
			t.Errorf("a write landed in layer %q, want the container's delta %q", f.Layer, "src")
		}
		tmpl := src.FS().Upper().Snapshot("tmpl")
		clone, err := Clone(p, src, DefaultConfig("clone", 100), tmpl)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, l := range clone.FS().Layers() {
			names = append(names, l.Name())
		}
		if got := fmt.Sprint(names); got != "[clone tmpl shared]" {
			t.Errorf("clone stacks %s, want [clone tmpl shared]", got)
		}
		clone.FS().Write(p, "/data/local.prop", 2*host.MB, nil, 1.0)
		if clone.DiskUsageBytes() != 2*host.MB || src.DiskUsageBytes() != host.MB {
			t.Errorf("deltas hold %d and %d bytes, want the clone's write in the clone only",
				clone.DiskUsageBytes(), src.DiskUsageBytes())
		}
		create := testing.AllocsPerRun(20, func() {
			c, _ := Create(p, h, k, DefaultConfig("c", 100), shared)
			sink = c
		})
		cloned := testing.AllocsPerRun(20, func() {
			c, _ := Clone(p, src, DefaultConfig("c", 100), tmpl)
			sink = c
		})
		if create > 2 || cloned > 2 {
			t.Errorf("Create allocates %.0f objects and Clone %.0f, want 2 each", create, cloned)
		}
	})
	e.Run()
}

// sink keeps a measured container on the heap, as the platform keeps them.
var sink *Container

func TestStateString(t *testing.T) {
	if StateCreated.String() != "created" || StateRunning.String() != "running" || StateStopped.String() != "stopped" {
		t.Fatal("State.String mismatch")
	}
}
