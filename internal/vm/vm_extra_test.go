package vm

import (
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/image"
	"rattrap/internal/sim"
)

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig("vm1")
	if cfg.MemMB != 512 || cfg.VCPUs != 1 {
		t.Fatalf("config = %+v, want Table I's 512 MB / 1 vCPU", cfg)
	}
	if cfg.BootIOEff >= cfg.IOEff || cfg.BootCPUEff >= cfg.CPUEff {
		t.Fatal("boot-path efficiencies should be below steady state")
	}
}

func TestBootConfigIsDeviceStyle(t *testing.T) {
	e, h := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		v, _ := Create(p, h, e, DefaultConfig("vm1"), image.AndroidX86())
		bc := v.BootConfig()
		if bc.Customized {
			t.Error("VM boot must run stock Android")
		}
		if bc.PreInitFixed <= 0 || bc.PreInitWork <= 0 {
			t.Error("device-style boot must pay pre-init stages")
		}
	})
	e.Run()
}

func TestVMWritesLandOnPrivateDisk(t *testing.T) {
	e, h := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		v, _ := Create(p, h, e, DefaultConfig("vm1"), image.AndroidX86())
		before := v.DiskUsageBytes()
		if err := v.FS().Write(p, "/data/new.db", 5*host.MB, nil, 1.0); err != nil {
			t.Fatal(err)
		}
		if got := v.DiskUsageBytes(); got != before+5*host.MB {
			t.Fatalf("disk usage %d, want %d", got, before+5*host.MB)
		}
	})
	e.Run()
}

func TestGuestMemUse(t *testing.T) {
	e, h := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		v, _ := Create(p, h, e, DefaultConfig("vm1"), image.AndroidX86())
		v.AllocMem(100)
		if v.GuestMemUsedMB() != 100 {
			t.Fatalf("guest mem = %d", v.GuestMemUsedMB())
		}
		v.FreeMem(300) // over-free clamps
		if v.GuestMemUsedMB() != 0 {
			t.Fatalf("guest mem = %d after free", v.GuestMemUsedMB())
		}
		if !v.Running() {
			t.Fatal("vm not running")
		}
		if v.CreateTime() <= 0 {
			t.Fatal("create time missing")
		}
		if v.NetOverhead() <= 0 {
			t.Fatal("VM network path should have overhead")
		}
	})
	e.Run()
}
