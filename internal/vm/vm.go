// Package vm implements the baseline code runtime environment of existing
// mobile-cloud platforms: an Android-x86 virtual machine under a
// VirtualBox-style hypervisor. Each VM reserves its full memory up front,
// carries a private copy of the whole 1.1 GB disk image, boots a guest
// kernel with the Android drivers built in, and pays hardware-
// virtualization efficiencies — low ones on the boot path (emulated BIOS,
// IDE probing, no paravirtual I/O early on) and moderate ones at steady
// state.
package vm

import (
	"fmt"
	"time"

	"rattrap/internal/acd"
	"rattrap/internal/android"
	"rattrap/internal/host"
	"rattrap/internal/image"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
)

// Config describes one Android-x86 VM.
type Config struct {
	Name string
	// MemMB is the configured guest memory, reserved at create time
	// (512 MB in Table I; Android-x86 needs at least 256).
	MemMB int
	// VCPUs is the virtual CPU count (1 in Table I).
	VCPUs int
	// CPUEff / IOEff are steady-state efficiencies under hardware
	// virtualization.
	CPUEff float64
	IOEff  float64
	// BootCPUEff / BootIOEff are the boot-path efficiencies: early boot
	// runs against fully emulated devices.
	BootCPUEff float64
	BootIOEff  float64
}

// DefaultConfig returns the Table I VM configuration.
func DefaultConfig(name string) Config {
	return Config{
		Name: name, MemMB: 512, VCPUs: 1,
		CPUEff: 0.95, IOEff: 0.55,
		BootCPUEff: 0.50, BootIOEff: 0.15,
	}
}

// Fixed hypervisor costs.
const (
	// createDelay covers VBoxManage createvm/modifyvm/startvm overhead.
	createDelay = 400 * time.Millisecond
	// PreInitFixed is dead boot time: BIOS POST, IDE/AHCI device probing,
	// bootloader menu, guest DHCP. android.BootConfig carries it.
	PreInitFixed = 2500 * time.Millisecond
	// PreInitWork is bootloader + guest kernel init + fsck CPU.
	PreInitWork host.Work = 1200
)

// VM is one virtual machine. It implements android.Env.
type VM struct {
	h   *host.Host
	cfg Config

	guestKernel *kernel.Kernel
	ns          kernel.Namespace
	fs          *unionfs.Mount
	disk        *image.Image // the private disk image Create built

	memUsedMB int // guest-internal accounting within the reservation
	running   bool
}

// Create provisions a VM on h: reserves guest memory, clones a private
// copy of the full disk image (manifest), and boots the guest kernel with
// the Android drivers built in — no loadable-module machinery, which is
// exactly the inflexibility Rattrap's Android Container Driver removes.
func Create(p *sim.Proc, h *host.Host, e *sim.Engine, cfg Config, manifest image.Manifest) (*VM, error) {
	if cfg.MemMB < 256 {
		return nil, fmt.Errorf("vm %s: Android-x86 requires at least 256 MB, got %d", cfg.Name, cfg.MemMB)
	}
	if err := h.AllocMem(cfg.MemMB); err != nil {
		return nil, fmt.Errorf("vm %s: %w", cfg.Name, err)
	}
	p.Sleep(createDelay)

	// Private disk image: a file's page-cache residency belongs to its
	// layer, so a layer per VM means no sharing across VMs (each has its
	// own file).
	disk := manifest.BuildLayer("vmdisk:"+cfg.Name, false)
	fs, err := unionfs.NewMount(h, cfg.Name, disk.Layer)
	if err != nil {
		h.FreeMem(cfg.MemMB)
		return nil, fmt.Errorf("vm %s: %w", cfg.Name, err)
	}
	// The hypervisor's virtual-disk path bypasses the host page cache.
	fs.SetDirectIO(true)

	// Guest kernel: Android's drivers are statically built in, modeled as
	// modules inserted during guest kernel init (their cost is part of
	// the boot the VM pays anyway).
	gk := kernel.New(e, h, "3.10.0-android")
	if err := acd.LoadAll(p, gk, acd.Modules(gk.Release())); err != nil {
		h.FreeMem(cfg.MemMB)
		return nil, fmt.Errorf("vm %s: guest kernel: %w", cfg.Name, err)
	}

	return &VM{
		h: h, cfg: cfg,
		guestKernel: gk,
		ns:          gk.NewNamespace(cfg.Name),
		fs:          fs,
		disk:        disk,
		running:     true,
	}, nil
}

// BootConfig returns the android.BootConfig for this VM's full device-style
// boot (Figure 6a) off its disk image: bootloader, kernel+ramdisk,
// filesystem preparation, then the stock (non-customized) init.
func (v *VM) BootConfig() android.BootConfig {
	return android.BootConfig{
		Image:        v.disk,
		Customized:   false,
		PreInitFixed: PreInitFixed,
		PreInitWork:  PreInitWork,
	}
}

// Name returns the VM id.
func (v *VM) Name() string { return v.cfg.Name }

// Host returns the machine the VM runs on.
func (v *VM) Host() *host.Host { return v.h }

// FS returns the guest's filesystem view (its private disk image).
func (v *VM) FS() *unionfs.Mount { return v.fs }

// OpenDevice opens a guest /dev node; the Android drivers are built into
// the guest kernel, so this always succeeds while the VM runs.
func (v *VM) OpenDevice(dev string, h *kernel.Handle) error {
	if !v.running {
		return fmt.Errorf("vm %s: not running", v.cfg.Name)
	}
	return v.guestKernel.Open(&v.ns, dev, h)
}

// CPUEff returns the steady-state CPU efficiency.
func (v *VM) CPUEff() float64 { return v.cfg.CPUEff }

// IOEff returns the steady-state I/O efficiency.
func (v *VM) IOEff() float64 { return v.cfg.IOEff }

// NetOverhead is the per-exchange cost of the emulated NIC path: every
// packet traverses the hypervisor's device model and wakes the vCPU.
func (v *VM) NetOverhead() time.Duration { return 40 * time.Millisecond }

// BootCPUEff returns the boot-path CPU efficiency.
func (v *VM) BootCPUEff() float64 { return v.cfg.BootCPUEff }

// BootIOEff returns the boot-path I/O efficiency.
func (v *VM) BootIOEff() float64 { return v.cfg.BootIOEff }

// AllocMem tracks guest memory inside the up-front reservation.
func (v *VM) AllocMem(mb int) error {
	if v.memUsedMB+mb > v.cfg.MemMB {
		return fmt.Errorf("vm %s: guest out of memory: %d+%d > %d MB", v.cfg.Name, v.memUsedMB, mb, v.cfg.MemMB)
	}
	v.memUsedMB += mb
	return nil
}

// FreeMem returns guest memory to the guest allocator.
func (v *VM) FreeMem(mb int) {
	if mb > v.memUsedMB {
		mb = v.memUsedMB
	}
	v.memUsedMB -= mb
}

// MemReservedMB is the host memory the VM holds regardless of guest use —
// the footprint Table I reports.
func (v *VM) MemReservedMB() int { return v.cfg.MemMB }

// DiskUsageBytes is the VM's private disk footprint: the entire image.
func (v *VM) DiskUsageBytes() host.Bytes { return v.disk.Layer.Size() }

// Destroy powers the VM off and releases its reservation.
func (v *VM) Destroy(p *sim.Proc) error {
	if !v.running {
		return fmt.Errorf("vm %s: already destroyed", v.cfg.Name)
	}
	p.Sleep(200 * time.Millisecond)
	v.running = false
	v.h.FreeMem(v.cfg.MemMB)
	v.disk.Layer.DropCacheOn(v.h) // the private disk image is never read again
	return nil
}
