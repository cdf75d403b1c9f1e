// Package android models the Android user space that runs inside a code
// runtime environment (an Android-x86 VM or a Cloud Android Container):
// the boot sequence of Figure 6, init and its daemons, zygote's class
// preloading, system-service startup over Binder, and the Dalvik-style
// executor that runs offloaded code through a ClassLoader.
//
// The same Boot runs everywhere; the environment (package container or
// package vm) supplies efficiencies, the filesystem, devices, and any
// pre-/init/ stages (bootloader, kernel, ramdisk — VM only), so the 28.7 s
// VM boot and the 1.75 s optimized container boot both *emerge* from what
// each environment actually does rather than from per-platform constants.
package android

import (
	"fmt"
	"strings"
	"time"

	"rattrap/internal/acd"
	"rattrap/internal/binder"
	"rattrap/internal/host"
	"rattrap/internal/image"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
)

// Env is what a code runtime environment provides to the Android user
// space. Containers and VMs both implement it.
type Env interface {
	// Name identifies the environment (container/VM id).
	Name() string
	// Host is the physical machine the environment runs on.
	Host() *host.Host
	// FS is the environment's root filesystem view.
	FS() *unionfs.Mount
	// OpenDevice opens a /dev node through the environment's device
	// namespace into h; it fails with kernel.ErrNoDevice when the backing
	// driver is not loaded.
	OpenDevice(dev string, h *kernel.Handle) error
	// CPUEff / IOEff are steady-state virtualization efficiencies.
	CPUEff() float64
	IOEff() float64
	// NetOverhead is the per-exchange cost of the environment's network
	// path (emulated NIC + vCPU wakeup for VMs, veth bridge for
	// containers). Interactive workloads pay it on every round trip.
	NetOverhead() time.Duration
	// BootCPUEff / BootIOEff are boot-path efficiencies; VM boots are
	// disproportionately expensive (device emulation, no paravirtual
	// I/O during early boot), so these may be lower than steady state.
	BootCPUEff() float64
	BootIOEff() float64
	// AllocMem/FreeMem account guest memory. A VM's pages are already
	// reserved at create time, so its implementation only tracks RSS;
	// a container's RSS lands directly on the host.
	AllocMem(mb int) error
	FreeMem(mb int)
}

// BootConfig selects what kind of Android comes up.
type BootConfig struct {
	// Image is the OS image the runtime boots from: the layer beneath the
	// environment's filesystem and its resolved working set.
	Image *image.Image
	// Customized enables the §IV-B3 offloading OS: modified init, no
	// UI/telephony services (their interfaces are faked with direct
	// returns), reduced zygote preload.
	Customized bool
	// PreInitFixed is dead time before /init that only device-style
	// boots pay: BIOS POST, emulated-device probing, DHCP timeouts.
	PreInitFixed time.Duration
	// PreInitWork is bootloader + kernel init + filesystem preparation
	// CPU, charged at the boot CPU efficiency.
	PreInitWork host.Work
}

// Process is one running user-space process (for the Monitor & Scheduler).
type Process struct {
	Name  string
	MemMB int
}

// Runtime is a booted Android user space.
type Runtime struct {
	env    Env
	cfg    BootConfig
	binder *binder.Context
	devs   []kernel.Handle // one slab, parallel to acd.RequiredDevices
	logger *acd.Logger

	procs    []Process
	memMB    int
	bootTime time.Duration
	loaded   map[string]host.Bytes // ClassLoader cache: AID -> code size
	offload  *unionfs.Mount        // where offloading I/O lands (may be FS)
	executed int

	up bool

	// scan is the post-boot background scan's proc, which the runtime owns:
	// starting it costs no allocation.
	scan bgScan
}

// Boot brings up Android inside env, blocking p for the whole sequence of
// Figure 6. It fails if any required Android device (Binder, Alarm,
// Logger, Ashmem) is missing — the kernel-incompatibility failure that
// motivates the Android Container Driver.
func Boot(p *sim.Proc, env Env, cfg BootConfig) (*Runtime, error) {
	r := &Runtime{env: env, cfg: cfg, loaded: make(map[string]host.Bytes), offload: env.FS()}
	h := env.Host()
	start := p.E.Now()

	// Stage 0 (device/VM boots only): bootloader, kernel, ramdisk, fsck.
	if cfg.PreInitFixed > 0 {
		p.Sleep(cfg.PreInitFixed)
	}
	if cfg.PreInitWork > 0 {
		h.Compute(p, cfg.PreInitWork, env.BootCPUEff())
	}

	// Stage 1: /init. First action: open the Android devices. Without the
	// Android Container Driver this is where a container boot dies.
	if err := r.openDevices("init"); err != nil {
		return nil, err
	}
	initSpec := initDaemons(cfg.Customized)
	// The whole census: the daemons, zygote, installd, the services and the
	// offload controller.
	r.procs = make([]Process, 0, len(initSpec)+2+len(services(cfg.Customized))+1)
	for _, d := range initSpec {
		h.Compute(p, d.cpu, env.BootCPUEff())
		if err := r.grow(d.name, d.mem); err != nil {
			r.teardown()
			return nil, err
		}
	}
	r.log("init", "daemons started")

	// Stage 2: zygote preload — reads the boot working set (framework
	// jars, core libraries) through the union filesystem and burns
	// preload CPU. This is the stage OS customization shrinks the most.
	for _, f := range cfg.Image.Boot {
		if _, _, err := env.FS().ReadRef(p, f, env.BootIOEff()); err != nil {
			r.teardown()
			return nil, fmt.Errorf("android: %s: zygote preload: %w", env.Name(), err)
		}
	}
	zy := zygoteSpec(cfg.Customized)
	h.Compute(p, zy.cpu, env.BootCPUEff())
	if err := r.grow("zygote", zy.mem); err != nil {
		r.teardown()
		return nil, err
	}
	r.log("zygote", "preloaded classes and resources")

	// Stage 3: package manager scan (dexopt bookkeeping).
	h.Compute(p, packageScanWork(cfg.Customized), env.BootCPUEff())
	if err := r.grow("installd", packageScanMem); err != nil {
		r.teardown()
		return nil, err
	}

	// Stage 4: system_server starts services; each registers with the
	// per-namespace Binder context, sized once for the whole table.
	r.binder.Reserve(len(services(cfg.Customized)) + 1)
	for _, s := range services(cfg.Customized) {
		h.Compute(p, s.cpu, env.BootCPUEff())
		if err := r.grow(s.name, s.mem); err != nil {
			r.teardown()
			return nil, err
		}
		if _, err := r.binder.Register(s.name, serviceHandlers[s.name]); err != nil {
			r.teardown()
			return nil, fmt.Errorf("android: %s: %w", env.Name(), err)
		}
	}

	// Stage 5: the offload controller, the process that receives
	// dispatched requests, plus per-runtime I/O buffers.
	h.Compute(p, offloadCtlWork, env.BootCPUEff())
	if err := r.grow("offloadcontroller", offloadCtlMem(cfg.Customized)); err != nil {
		r.teardown()
		return nil, err
	}
	if _, err := r.binder.Register("offloadcontroller", serviceHandlers["offloadcontroller"]); err != nil {
		r.teardown()
		return nil, err
	}
	r.log("offloadcontroller", "ready")

	// Boot writes: dalvik-cache for the runtime package, properties,
	// logs. This is the container's private on-disk delta — Table I's
	// "less than 7.1 MB" per optimized Cloud Android Container.
	for _, w := range []struct {
		path string
		size host.Bytes
	}{
		{"/data/dalvik-cache/system@offloadruntime.dex", 6 * host.MB},
		{"/data/local.prop", 300 * host.KB},
		{"/data/misc/boot.log", 500 * host.KB},
	} {
		if err := env.FS().Write(p, w.path, w.size, nil, env.BootIOEff()); err != nil {
			r.teardown()
			return nil, fmt.Errorf("android: %s: boot writes: %w", env.Name(), err)
		}
	}

	r.bootTime = (p.E.Now() - start).Duration()
	r.up = true

	// Post-boot background initialization: Android's media scanner,
	// background dexopt and lazy class loading fault in the rest of the
	// core OS files over the first minute of uptime. This — not the
	// request path — is what leaves only the strippable set untouched in
	// the §III-E profiling.
	r.scan.r = r
	p.E.Start(&r.scan.Proc, "bgscan", &r.scan)
	return r, nil
}

// bgScan is a booted runtime's post-boot background initialization: after
// two seconds it reads the image's on-demand files, one every 400 ms, until
// it has read them all or the runtime goes down.
type bgScan struct {
	sim.Proc
	r *Runtime
}

func (s *bgScan) Run(p *sim.Proc) {
	r := s.r
	p.Sleep(2 * time.Second)
	for _, f := range r.cfg.Image.OnDemand {
		if !r.up {
			return
		}
		if _, _, err := r.env.FS().ReadRef(p, f, r.env.IOEff()); err != nil {
			return // runtime torn down mid-scan
		}
		p.Sleep(400 * time.Millisecond)
	}
}

// Template is a captured boot: the process census, memory footprint and
// boot flavor of a fully booted runtime, frozen at the post-driver-load,
// post-zygote point. CloneBoot thaws it into a fresh environment without
// re-running the Figure 6 sequence.
type Template struct {
	cfg   BootConfig
	procs []Process
	memMB int
}

// CaptureTemplate freezes this runtime's booted user-space state for
// CloneBoot. The source runtime keeps serving; the capture shares nothing
// mutable with it.
func (r *Runtime) CaptureTemplate() *Template {
	return &Template{cfg: r.cfg, procs: append([]Process(nil), r.procs...), memMB: r.memMB}
}

// MemMB reports the template image's resident footprint.
func (t *Template) MemMB() int { return t.memMB }

// cloneThawWork is the fixed CPU a clone pays to thaw the frozen process
// image and re-key it to its own namespace (CRIU-style restore: remap
// Binder handles, fix up pids, resume threads).
const cloneThawWork host.Work = 24

// CloneBoot brings up Android inside env by thawing tmpl instead of
// booting. The environment's rootfs already carries the template's boot
// artifacts (dalvik-cache, properties, logs) through its cloned union
// mount, so the clone skips the zygote preload reads, the init/zygote/
// service compute, and the boot writes. It still opens the Android
// devices in its own namespace and registers its services on its own
// Binder context — per-namespace kernel state cannot be cloned from user
// space — and its memory is charged as one frozen image.
func CloneBoot(p *sim.Proc, env Env, tmpl *Template) (*Runtime, error) {
	r := &Runtime{env: env, cfg: tmpl.cfg, loaded: make(map[string]host.Bytes), offload: env.FS()}
	h := env.Host()
	start := p.E.Now()

	if err := r.openDevices("clone"); err != nil {
		return nil, err
	}

	// One allocation for the whole frozen image; the per-process split is
	// restored from the capture.
	if err := env.AllocMem(tmpl.memMB); err != nil {
		r.closeDevices()
		return nil, fmt.Errorf("android: %s: clone: %w", env.Name(), err)
	}
	r.memMB = tmpl.memMB
	r.procs = append([]Process(nil), tmpl.procs...)
	h.Compute(p, cloneThawWork, env.BootCPUEff())

	r.binder.Reserve(len(services(tmpl.cfg.Customized)) + 1)
	for _, s := range services(tmpl.cfg.Customized) {
		if _, err := r.binder.Register(s.name, serviceHandlers[s.name]); err != nil {
			r.teardown()
			return nil, fmt.Errorf("android: %s: %w", env.Name(), err)
		}
	}
	if _, err := r.binder.Register("offloadcontroller", serviceHandlers["offloadcontroller"]); err != nil {
		r.teardown()
		return nil, fmt.Errorf("android: %s: %w", env.Name(), err)
	}
	r.log("offloadcontroller", "thawed from template")

	r.bootTime = (p.E.Now() - start).Duration()
	r.up = true
	return r, nil
}

// openDevices opens every Android device through the environment's device
// namespace and picks out the driver state the runtime talks to; stage names
// the caller in the error.
func (r *Runtime) openDevices(stage string) error {
	devices := acd.RequiredDevices()
	r.devs = make([]kernel.Handle, len(devices))
	for i, dev := range devices {
		hnd := &r.devs[i]
		if err := r.env.OpenDevice(dev, hnd); err != nil {
			r.closeDevices()
			return fmt.Errorf("android: %s: %s: opening %s: %w", r.env.Name(), stage, dev, err)
		}
		switch dev {
		case acd.DevBinder:
			r.binder = hnd.State().(*binder.Context)
		case acd.DevLogMain:
			r.logger = hnd.State().(*acd.Logger)
		}
	}
	return nil
}

func (r *Runtime) grow(proc string, mb int) error {
	if err := r.env.AllocMem(mb); err != nil {
		return fmt.Errorf("android: %s: starting %s: %w", r.env.Name(), proc, err)
	}
	r.memMB += mb
	r.procs = append(r.procs, Process{Name: proc, MemMB: mb})
	return nil
}

// log writes one logcat line whose message is msg's parts concatenated
// (see acd.Logger.Write).
func (r *Runtime) log(tag string, msg ...string) {
	if r.logger != nil {
		r.logger.Write(tag, msg...)
	}
}

// CallService performs a Binder transaction against a named service in
// this runtime. Removed UI services answer with a faked direct return.
func (r *Runtime) CallService(name string, code uint32, data []byte) ([]byte, error) {
	if r.cfg.Customized {
		if _, removed := removedServiceSet[name]; removed {
			// Faked interface: direct return, no service behind it.
			return []byte(name + ":faked"), nil
		}
	}
	return r.binder.Call(name, code, data)
}

// Binder exposes the runtime's Binder context (its device namespace view).
func (r *Runtime) Binder() *binder.Context { return r.binder }

// BootTime reports how long Boot took.
func (r *Runtime) BootTime() time.Duration { return r.bootTime }

// MemMB reports the runtime's resident memory.
func (r *Runtime) MemMB() int { return r.memMB }

// Processes lists running processes.
func (r *Runtime) Processes() []Process {
	out := make([]Process, len(r.procs))
	copy(out, r.procs)
	return out
}

// ProcessCount reports how many processes run, without copying the list.
func (r *Runtime) ProcessCount() int { return len(r.procs) }

// Up reports whether the runtime is serving.
func (r *Runtime) Up() bool { return r.up }

// Executed reports how many offloaded tasks this runtime has run.
func (r *Runtime) Executed() int { return r.executed }

// SetOffloadFS redirects offloading I/O (transferred files, staged inputs)
// to the given mount — the shared in-memory offloading I/O layer in
// optimized Rattrap (Figure 7b); by default it is the runtime's own rootfs
// (Figure 7a, "Exclusive Offloading I/O").
func (r *Runtime) SetOffloadFS(m *unionfs.Mount) { r.offload = m }

// OffloadFS returns where offloading I/O currently lands.
func (r *Runtime) OffloadFS() *unionfs.Mount { return r.offload }

// closeDevices closes the opened handles; unopened ones refuse harmlessly.
func (r *Runtime) closeDevices() {
	for i := range r.devs {
		r.devs[i].Close()
	}
	r.devs = nil
}

func (r *Runtime) teardown() {
	r.closeDevices()
	r.env.FreeMem(r.memMB)
	r.memMB = 0
	r.procs = nil
}

// Shutdown stops the runtime, releasing memory and device handles (which
// lets the platform unload idle Android Container Driver modules).
func (r *Runtime) Shutdown() {
	if !r.up {
		return
	}
	r.up = false
	for _, s := range services(r.cfg.Customized) {
		_ = r.binder.Unregister(s.name)
	}
	_ = r.binder.Unregister("offloadcontroller")
	r.teardown()
}

// Describe summarizes the runtime for logs and the Container DB.
func (r *Runtime) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: boot=%v mem=%dMB procs=%d", r.env.Name(), r.bootTime, r.memMB, len(r.procs))
	return b.String()
}
