// Package kernel models the cloud server's host OS kernel: the running
// Linux image that containers share, its loadable-kernel-module facility,
// the /dev device table, and Cells-style device namespaces.
//
// This is the substrate for the paper's key idea (§IV-B1): Android kernel
// features (Binder, Alarm, Logger, ...) need not be built into the host
// kernel — they can be packaged as loadable modules (the Android Container
// Driver, package acd) and inserted only while Cloud Android Containers
// need them, with per-container device namespaces multiplexing each pseudo
// driver. A container whose required devices are missing fails to boot
// Android with ErrNoDevice, exactly like a missing /dev/binder would.
package kernel

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// Errors returned by kernel operations.
var (
	ErrNoDevice     = errors.New("kernel: no such device") // ENODEV
	ErrModuleLoaded = errors.New("kernel: module already loaded")
	ErrModuleInUse  = errors.New("kernel: module in use") // EBUSY
	ErrNoModule     = errors.New("kernel: module not loaded")
	ErrVersionMagic = errors.New("kernel: version magic mismatch") // insmod vermagic
	ErrDeviceExists = errors.New("kernel: device already registered")
)

// StateFactory builds per-device-namespace driver state (e.g. a fresh
// binder.Context per container).
type StateFactory func() any

// DeviceSpec describes one pseudo device a module provides.
type DeviceSpec struct {
	// Name is the /dev path, e.g. "/dev/binder".
	Name string
	// Namespaced devices get independent state per device namespace
	// (Binder, Alarm, Logger in the paper); non-namespaced devices share
	// one state kernel-wide.
	Namespaced bool
	// New creates driver state. May be nil for stateless devices.
	New StateFactory
}

// Module is a loadable kernel module (.ko).
type Module struct {
	// Name as shown by lsmod, e.g. "binder_linux".
	Name string
	// VerMagic must match the kernel release, or insmod fails.
	VerMagic string
	// SizeKB is the module's resident size.
	SizeKB int
	// Devices are the pseudo devices initialized when the module loads
	// ("initiated only when Android Container Driver is loaded").
	Devices []DeviceSpec
	// LoadCost is CPU work spent in module_init.
	LoadCost host.Work
}

type loadedModule struct {
	spec   *Module
	refs   int // open handles across all namespaces
	shared map[string]any
}

// Namespace is a device namespace: one per container, multiplexing
// namespaced pseudo devices so each container sees private driver state.
type Namespace struct {
	name  string
	state map[string]any // device path -> per-namespace state
}

// Name returns the namespace identifier.
func (ns *Namespace) Name() string { return ns.name }

// Kernel is the host kernel instance.
type Kernel struct {
	e       *sim.Engine
	h       *host.Host
	release string
	modules map[string]*loadedModule
	devices map[string]*Module // /dev path -> owning module
	memKB   int
}

// New boots a kernel of the given release (the paper uses 3.18.0) on h.
func New(e *sim.Engine, h *host.Host, release string) *Kernel {
	return &Kernel{
		e:       e,
		h:       h,
		release: release,
		modules: make(map[string]*loadedModule),
		devices: make(map[string]*Module),
	}
}

// Release returns the kernel version string.
func (k *Kernel) Release() string { return k.release }

// Load inserts a module (insmod), blocking p for the init cost. It fails
// on version-magic mismatch, double load, or device-name collisions —
// and, per the paper's deployment story, requires neither a kernel rebuild
// nor a reboot.
func (k *Kernel) Load(p *sim.Proc, m *Module) error {
	if m.VerMagic != "" && m.VerMagic != k.release {
		return fmt.Errorf("%w: module %s built for %s, kernel is %s", ErrVersionMagic, m.Name, m.VerMagic, k.release)
	}
	if _, ok := k.modules[m.Name]; ok {
		return fmt.Errorf("%w: %s", ErrModuleLoaded, m.Name)
	}
	for _, d := range m.Devices {
		if _, ok := k.devices[d.Name]; ok {
			return fmt.Errorf("%w: %s", ErrDeviceExists, d.Name)
		}
	}
	// Read the .ko (a small contiguous file) and run module_init.
	k.h.DiskRead(p, "ko:"+m.Name, host.Bytes(m.SizeKB)*host.KB, true, 1.0)
	k.h.Compute(p, m.LoadCost, 1.0)
	lm := &loadedModule{spec: m, shared: make(map[string]any)}
	k.modules[m.Name] = lm
	for _, d := range m.Devices {
		k.devices[d.Name] = m
		if !d.Namespaced && d.New != nil {
			lm.shared[d.Name] = d.New()
		}
	}
	k.memKB += m.SizeKB
	return nil
}

// Unload removes a module (rmmod). It fails with ErrModuleInUse while any
// handle to one of its devices is open — the "unloaded when no longer
// needed to avoid wasting memory" lifecycle.
func (k *Kernel) Unload(name string) error {
	lm, ok := k.modules[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoModule, name)
	}
	if lm.refs > 0 {
		return fmt.Errorf("%w: %s has %d open handles", ErrModuleInUse, name, lm.refs)
	}
	for _, d := range lm.spec.Devices {
		delete(k.devices, d.Name)
	}
	delete(k.modules, name)
	k.memKB -= lm.spec.SizeKB
	return nil
}

// Loaded reports whether a module is inserted.
func (k *Kernel) Loaded(name string) bool {
	_, ok := k.modules[name]
	return ok
}

// Lsmod lists loaded modules, sorted.
func (k *Kernel) Lsmod() []string {
	out := make([]string, 0, len(k.modules))
	for n := range k.modules {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ModuleMemKB returns resident module memory in KiB.
func (k *Kernel) ModuleMemKB() int { return k.memKB }

// HasDevice reports whether a /dev path is currently provided.
func (k *Kernel) HasDevice(dev string) bool {
	_, ok := k.devices[dev]
	return ok
}

// NewNamespace creates a device namespace for a container.
func (k *Kernel) NewNamespace(name string) *Namespace {
	return &Namespace{name: name, state: make(map[string]any)}
}

// Handle is an open device descriptor.
type Handle struct {
	k     *Kernel
	mod   *loadedModule
	dev   string
	state any
	open  bool
}

// Open opens dev within ns. It returns ErrNoDevice when no loaded module
// provides the device — the failure a container hits when the Android
// Container Driver is absent. Namespaced devices lazily create
// per-namespace state; shared devices return the module-wide state.
func (k *Kernel) Open(ns *Namespace, dev string) (*Handle, error) {
	m, ok := k.devices[dev]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDevice, dev)
	}
	lm := k.modules[m.Name]
	var spec *DeviceSpec
	for i := range m.Devices {
		if m.Devices[i].Name == dev {
			spec = &m.Devices[i]
			break
		}
	}
	var state any
	if spec.Namespaced {
		if ns == nil {
			return nil, fmt.Errorf("kernel: device %s requires a device namespace", dev)
		}
		if s, ok := ns.state[dev]; ok {
			state = s
		} else if spec.New != nil {
			state = spec.New()
			ns.state[dev] = state
		}
	} else {
		state = lm.shared[dev]
	}
	lm.refs++
	return &Handle{k: k, mod: lm, dev: dev, state: state, open: true}, nil
}

// State returns the driver state behind the handle (e.g. *binder.Context).
func (h *Handle) State() any { return h.state }

// Device returns the /dev path.
func (h *Handle) Device() string { return h.dev }

// Close releases the handle, dropping the owning module's refcount.
func (h *Handle) Close() error {
	if !h.open {
		return errors.New("kernel: handle closed twice")
	}
	h.open = false
	h.mod.refs--
	return nil
}

// DefaultLoadTime is a representative insmod latency used for module specs
// that want a simple time-based cost instead of Work.
const DefaultLoadTime = 15 * time.Millisecond
