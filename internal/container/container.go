// Package container implements the LXC-style OS container runtime beneath
// Cloud Android Containers: create/start/stop lifecycle, a union-mounted
// root filesystem, a device namespace for the Android pseudo drivers, and
// cgroup-style memory/CPU limits. Containers share the host kernel, so
// there is no guest kernel to boot — Create is two orders of magnitude
// cheaper than a VM's bring-up — and their virtualization efficiencies are
// near-native.
package container

import (
	"errors"
	"fmt"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
)

// State is the container lifecycle state.
type State int

const (
	// StateCreated means namespaces and rootfs exist but nothing runs.
	StateCreated State = iota
	// StateRunning means the container has running processes.
	StateRunning
	// StateStopped means the container was shut down.
	StateStopped
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Config describes one container.
type Config struct {
	Name string
	// MemLimitMB is the cgroup memory limit (Table I: 128 MB for the
	// non-optimized Cloud Android Container, 96 MB optimized).
	MemLimitMB int
	// VCPUs is the CPU allocation (1 in Table I).
	VCPUs int
	// CPUEff / IOEff are steady-state efficiencies: containers run at
	// near-native speed (no binary translation, no emulated devices).
	CPUEff float64
	IOEff  float64
}

// DefaultConfig returns the Table I container configuration.
func DefaultConfig(name string, memLimitMB int) Config {
	return Config{Name: name, MemLimitMB: memLimitMB, VCPUs: 1, CPUEff: 0.99, IOEff: 0.93}
}

// Fixed lifecycle costs: clone(2) with new namespaces, cgroup setup and
// the union mount. Measured LXC starts are O(100 ms).
const (
	createDelay = 80 * time.Millisecond
	mountDelay  = 40 * time.Millisecond
	stopDelay   = 30 * time.Millisecond
)

// ErrMemLimit is returned when an allocation would exceed the cgroup limit.
var ErrMemLimit = errors.New("container: cgroup memory limit exceeded")

// Container is one OS container. It implements android.Env.
type Container struct {
	h   *host.Host
	k   *kernel.Kernel
	cfg Config

	ns    *kernel.Namespace
	fs    *unionfs.Mount
	state State

	memUsedMB  int
	memPeakMB  int
	createTime time.Duration
}

// Create builds a container on h: namespaces, cgroups, a device namespace
// in k, and a union rootfs of upper over lowers. It blocks p for the
// setup time.
func Create(p *sim.Proc, h *host.Host, k *kernel.Kernel, cfg Config, upper *unionfs.Layer, lowers ...*unionfs.Layer) (*Container, error) {
	if cfg.MemLimitMB <= 0 {
		return nil, fmt.Errorf("container %s: memory limit %d MB", cfg.Name, cfg.MemLimitMB)
	}
	if cfg.CPUEff <= 0 || cfg.CPUEff > 1 || cfg.IOEff <= 0 || cfg.IOEff > 1 {
		return nil, fmt.Errorf("container %s: bad efficiencies %v/%v", cfg.Name, cfg.CPUEff, cfg.IOEff)
	}
	start := p.E.Now()
	p.Sleep(createDelay)
	fs, err := unionfs.NewMount(h, cfg.Name, upper, lowers...)
	if err != nil {
		return nil, fmt.Errorf("container %s: %w", cfg.Name, err)
	}
	p.Sleep(mountDelay)
	c := &Container{
		h: h, k: k, cfg: cfg,
		ns:         k.NewNamespace(cfg.Name),
		fs:         fs,
		state:      StateRunning,
		createTime: (p.E.Now() - start).Duration(),
	}
	return c, nil
}

// Clone lifecycle costs: namespaces and cgroups are stamped from a
// prepared template instead of assembled from scratch, and the union
// mount splices the frozen template layer instead of re-building the
// image stack — an order of magnitude cheaper than Create.
const (
	cloneCreateDelay = 10 * time.Millisecond
	cloneMountDelay  = 5 * time.Millisecond
)

// Clone builds a container as a copy-on-write twin of src at template
// capture time: a fresh writable upper over tmpl (a unionfs Snapshot of
// src's upper) and src's shared lower stack. src may already be stopped —
// only its mount recipe and host/kernel bindings are read. It blocks p
// for the (cheap) clone setup time.
func Clone(p *sim.Proc, src *Container, cfg Config, upper, tmpl *unionfs.Layer) (*Container, error) {
	if cfg.MemLimitMB <= 0 {
		return nil, fmt.Errorf("container %s: memory limit %d MB", cfg.Name, cfg.MemLimitMB)
	}
	if cfg.CPUEff <= 0 || cfg.CPUEff > 1 || cfg.IOEff <= 0 || cfg.IOEff > 1 {
		return nil, fmt.Errorf("container %s: bad efficiencies %v/%v", cfg.Name, cfg.CPUEff, cfg.IOEff)
	}
	start := p.E.Now()
	p.Sleep(cloneCreateDelay)
	fs, err := src.fs.CloneFrom(cfg.Name, upper, tmpl)
	if err != nil {
		return nil, fmt.Errorf("container %s: %w", cfg.Name, err)
	}
	p.Sleep(cloneMountDelay)
	c := &Container{
		h: src.h, k: src.k, cfg: cfg,
		ns:         src.k.NewNamespace(cfg.Name),
		fs:         fs,
		state:      StateRunning,
		createTime: (p.E.Now() - start).Duration(),
	}
	return c, nil
}

// Name returns the container id.
func (c *Container) Name() string { return c.cfg.Name }

// Host returns the machine the container runs on.
func (c *Container) Host() *host.Host { return c.h }

// FS returns the container's root filesystem view.
func (c *Container) FS() *unionfs.Mount { return c.fs }

// OpenDevice opens a /dev node through the container's device namespace.
func (c *Container) OpenDevice(dev string) (*kernel.Handle, error) {
	if c.state != StateRunning {
		return nil, fmt.Errorf("container %s: not running", c.cfg.Name)
	}
	return c.k.Open(c.ns, dev)
}

// CPUEff returns the steady-state CPU efficiency.
func (c *Container) CPUEff() float64 { return c.cfg.CPUEff }

// IOEff returns the steady-state I/O efficiency.
func (c *Container) IOEff() float64 { return c.cfg.IOEff }

// NetOverhead is the per-exchange veth/bridge cost: near native.
func (c *Container) NetOverhead() time.Duration { return 2 * time.Millisecond }

// BootCPUEff equals CPUEff: container boots run the same near-native path.
func (c *Container) BootCPUEff() float64 { return c.cfg.CPUEff }

// BootIOEff equals IOEff.
func (c *Container) BootIOEff() float64 { return c.cfg.IOEff }

// AllocMem charges guest memory against the cgroup limit and the host.
func (c *Container) AllocMem(mb int) error {
	if c.memUsedMB+mb > c.cfg.MemLimitMB {
		return fmt.Errorf("%w: %s: %d+%d > %d MB", ErrMemLimit, c.cfg.Name, c.memUsedMB, mb, c.cfg.MemLimitMB)
	}
	if err := c.h.AllocMem(mb); err != nil {
		return fmt.Errorf("container %s: %w", c.cfg.Name, err)
	}
	c.memUsedMB += mb
	if c.memUsedMB > c.memPeakMB {
		c.memPeakMB = c.memUsedMB
	}
	return nil
}

// FreeMem releases guest memory back to the host.
func (c *Container) FreeMem(mb int) {
	if mb > c.memUsedMB {
		mb = c.memUsedMB
	}
	c.memUsedMB -= mb
	c.h.FreeMem(mb)
}

// MemUsedMB returns the container's resident memory.
func (c *Container) MemUsedMB() int { return c.memUsedMB }

// MemPeakMB returns the container's peak resident memory.
func (c *Container) MemPeakMB() int { return c.memPeakMB }

// MemLimitMB returns the configured cgroup limit.
func (c *Container) MemLimitMB() int { return c.cfg.MemLimitMB }

// State returns the lifecycle state.
func (c *Container) State() State { return c.state }

// CreateTime reports how long Create took.
func (c *Container) CreateTime() time.Duration { return c.createTime }

// DiskUsageBytes is the container's private disk footprint: its writable
// upper layer only. Shared lower layers are charged once, platform-wide.
func (c *Container) DiskUsageBytes() host.Bytes { return c.fs.Upper().Size() }

// Stop shuts the container down, releasing any memory still charged.
func (c *Container) Stop(p *sim.Proc) error {
	if c.state != StateRunning {
		return fmt.Errorf("container %s: stop in state %s", c.cfg.Name, c.state)
	}
	p.Sleep(stopDelay)
	if c.memUsedMB > 0 {
		c.h.FreeMem(c.memUsedMB)
		c.memUsedMB = 0
	}
	c.fs.Upper().DropCacheOn(c.h) // the private delta is never read again
	c.state = StateStopped
	return nil
}
