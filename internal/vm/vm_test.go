package vm

import (
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/image"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
)

func newHarness() (*sim.Engine, *host.Host) {
	e := sim.NewEngine(1)
	return e, host.New(e, host.CloudServer())
}

func TestCreateReservesMemoryUpfront(t *testing.T) {
	e, h := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		v, err := Create(p, h, e, DefaultConfig("vm1"), image.AndroidX86())
		if err != nil {
			t.Fatal(err)
		}
		if h.MemUsedMB() != 512 {
			t.Errorf("host memory = %d MB, want 512 reserved at create", h.MemUsedMB())
		}
		if v.MemReservedMB() != 512 {
			t.Errorf("reservation = %d", v.MemReservedMB())
		}
	})
	e.Run()
}

func TestMinimumMemory(t *testing.T) {
	e, h := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		cfg := DefaultConfig("vm1")
		cfg.MemMB = 128 // Android-x86 requires at least 256 MB
		if _, err := Create(p, h, e, cfg, image.AndroidX86()); err == nil {
			t.Error("VM with 128 MB accepted")
		}
	})
	e.Run()
}

func TestGuestMemoryWithinReservation(t *testing.T) {
	e, h := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		v, _ := Create(p, h, e, DefaultConfig("vm1"), image.AndroidX86())
		if err := v.AllocMem(500); err != nil {
			t.Fatal(err)
		}
		if err := v.AllocMem(100); err == nil {
			t.Error("guest overcommit accepted")
		}
		// Guest allocations never change the host charge.
		if h.MemUsedMB() != 512 {
			t.Errorf("host memory = %d MB", h.MemUsedMB())
		}
	})
	e.Run()
}

func TestPrivateDiskImagePerVM(t *testing.T) {
	e, h := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		v1, _ := Create(p, h, e, DefaultConfig("vm1"), image.AndroidX86())
		v2, _ := Create(p, h, e, DefaultConfig("vm2"), image.AndroidX86())
		// Table I: each VM carries the whole ≈1.1 GB image.
		if v1.DiskUsageBytes() != image.AndroidX86().TotalBytes() {
			t.Errorf("disk usage = %d", v1.DiskUsageBytes())
		}
		// Reading the image in vm1 must not warm vm2's cache (separate
		// image files on the host).
		var first, second sim.Time
		t0 := e.Now()
		v1.FS().Read(p, "/system/framework/framework_0000.jar", 1.0)
		first = e.Now() - t0
		t0 = e.Now()
		v2.FS().Read(p, "/system/framework/framework_0000.jar", 1.0)
		second = e.Now() - t0
		if second < first/2 {
			t.Error("VM disk images share page cache; they must be private copies")
		}
	})
	e.Run()
}

func TestGuestDevicesAlwaysPresent(t *testing.T) {
	e, h := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		v, _ := Create(p, h, e, DefaultConfig("vm1"), image.AndroidX86())
		// Android drivers are built into the guest kernel.
		var hnd kernel.Handle
		if err := v.OpenDevice("/dev/binder", &hnd); err != nil {
			t.Fatalf("guest /dev/binder: %v", err)
		}
		hnd.Close()
	})
	e.Run()
}

func TestDestroyReleasesReservation(t *testing.T) {
	e, h := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		v, _ := Create(p, h, e, DefaultConfig("vm1"), image.AndroidX86())
		if err := v.Destroy(p); err != nil {
			t.Fatal(err)
		}
		if h.MemUsedMB() != 0 {
			t.Errorf("destroy leaked %d MB", h.MemUsedMB())
		}
		if err := v.Destroy(p); err == nil {
			t.Error("double destroy succeeded")
		}
		if err := v.OpenDevice("/dev/binder", new(kernel.Handle)); err == nil {
			t.Error("device open on destroyed VM succeeded")
		}
	})
	e.Run()
}

func TestHostMemoryCapsVMCount(t *testing.T) {
	// 16 GB host: at most 32 concurrent 512 MB VMs fit; the paper's point
	// about pre-starting VMs reducing utilization shows up here.
	e, h := newHarness()
	e.Spawn("t", func(p *sim.Proc) {
		created := 0
		for i := 0; i < 40; i++ {
			if _, err := Create(p, h, e, DefaultConfig("vm"+string(rune('a'+i))), image.AndroidX86()); err != nil {
				break
			}
			created++
		}
		if created != 32 {
			t.Errorf("created %d VMs on a 16 GB host, want 32", created)
		}
	})
	e.Run()
}
