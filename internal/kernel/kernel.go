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
	// Namespaced devices are multiplexed per device namespace (Binder,
	// Alarm, Logger in the paper): each namespace that opens one takes an
	// entry of its table, holding its own state if New makes any.
	// Non-namespaced devices are shared kernel-wide and carry no state.
	Namespaced bool
	// New creates a namespaced device's per-namespace state. It is nil for
	// stateless devices — in the Android Container Driver, every device
	// but Binder — and Load refuses it on a non-namespaced one.
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

// loadedModule is the kernel's record of a module; it outlives an unload, so
// a module loaded and unloaded with every cold boot is not rebuilt each time.
type loadedModule struct {
	spec   *Module
	key    string // page-cache key of the .ko file
	loaded bool
	refs   int // open handles across all namespaces
}

// Namespace is a device namespace: one per container, multiplexing
// namespaced pseudo devices so each container sees private driver state.
// Its table is fixed and held inline, so a namespace is a value its
// container embeds: a boot opens the same four namespaced devices every
// time, and a table that grows would cost a boot allocations for nothing.
type Namespace struct {
	name  string
	state [maxNamespaced]nsState // opened devices, in open order; dev "" ends it
}

// maxNamespaced is how many namespaced devices one namespace can open: the
// Android Container Driver's four (Binder, Alarm and the two log streams),
// of which only Binder's entry holds driver state.
const maxNamespaced = 4

// nsState is one namespaced device's private state within a namespace.
type nsState struct {
	dev   string
	state any
}

// Name returns the namespace identifier.
func (ns *Namespace) Name() string { return ns.name }

// Kernel is the host kernel instance.
type Kernel struct {
	e       *sim.Engine
	h       *host.Host
	release string
	modules map[string]*loadedModule // every module ever loaded; see loaded
	devices map[string]*loadedModule // /dev path -> owning module
	memKB   int
}

// New boots a kernel of the given release (the paper uses 3.18.0) on h.
func New(e *sim.Engine, h *host.Host, release string) *Kernel {
	return &Kernel{
		e:       e,
		h:       h,
		release: release,
		modules: make(map[string]*loadedModule),
		devices: make(map[string]*loadedModule),
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
	lm := k.modules[m.Name]
	if lm != nil && lm.loaded {
		return fmt.Errorf("%w: %s", ErrModuleLoaded, m.Name)
	}
	for _, d := range m.Devices {
		if _, ok := k.devices[d.Name]; ok {
			return fmt.Errorf("%w: %s", ErrDeviceExists, d.Name)
		}
		if !d.Namespaced && d.New != nil {
			return fmt.Errorf("kernel: module %s: device %s is not namespaced, so it carries no state", m.Name, d.Name)
		}
	}
	if lm == nil || lm.spec != m {
		lm = &loadedModule{spec: m, key: "ko:" + m.Name}
		k.modules[m.Name] = lm
	}
	// Read the .ko (a small contiguous file) and run module_init.
	k.h.DiskRead(p, lm.key, host.Bytes(m.SizeKB)*host.KB, true, 1.0)
	k.h.Compute(p, m.LoadCost, 1.0)
	if lm.loaded {
		// A concurrent insmod of the same module finished while this one
		// read and initialized it: the module is in, once.
		return fmt.Errorf("%w: %s", ErrModuleLoaded, m.Name)
	}
	lm.loaded = true
	for _, d := range m.Devices {
		k.devices[d.Name] = lm
	}
	k.memKB += m.SizeKB
	return nil
}

// Unload removes a module (rmmod). It fails with ErrModuleInUse while any
// handle to one of its devices is open — the "unloaded when no longer
// needed to avoid wasting memory" lifecycle.
func (k *Kernel) Unload(name string) error {
	lm := k.modules[name]
	if lm == nil || !lm.loaded {
		return fmt.Errorf("%w: %s", ErrNoModule, name)
	}
	if lm.refs > 0 {
		return fmt.Errorf("%w: %s has %d open handles", ErrModuleInUse, name, lm.refs)
	}
	for _, d := range lm.spec.Devices {
		delete(k.devices, d.Name)
	}
	lm.loaded = false
	k.memKB -= lm.spec.SizeKB
	return nil
}

// Loaded reports whether a module is inserted.
func (k *Kernel) Loaded(name string) bool {
	lm := k.modules[name]
	return lm != nil && lm.loaded
}

// Lsmod lists loaded modules, sorted.
func (k *Kernel) Lsmod() []string {
	out := make([]string, 0, len(k.modules))
	for n, lm := range k.modules {
		if lm.loaded {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// ModuleMemKB returns resident module memory in KiB.
func (k *Kernel) ModuleMemKB() int { return k.memKB }

// NewNamespace creates a device namespace for a container. Open takes it
// by pointer: the namespace must stay where it is once a device is open.
func (k *Kernel) NewNamespace(name string) Namespace {
	return Namespace{name: name}
}

// stateOf returns dev's entry in the table, or the free entry after the last
// one, or nil when the table is full.
func (ns *Namespace) stateOf(dev string) *nsState {
	for i := range ns.state {
		if e := &ns.state[i]; e.dev == dev || e.dev == "" {
			return e
		}
	}
	return nil
}

// Handle is an open device descriptor, in storage the caller owns.
type Handle struct {
	mod   *loadedModule
	dev   string
	state any
	open  bool
}

// Open opens dev within ns into h. It returns ErrNoDevice when no loaded
// module provides the device — the failure a container hits when the
// Android Container Driver is absent. Namespaced devices lazily create
// per-namespace state; shared devices have none.
func (k *Kernel) Open(ns *Namespace, dev string, h *Handle) error {
	lm, ok := k.devices[dev]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDevice, dev)
	}
	i := 0
	for lm.spec.Devices[i].Name != dev {
		i++
	}
	spec := &lm.spec.Devices[i]
	var state any
	if spec.Namespaced {
		if ns == nil {
			return fmt.Errorf("kernel: device %s requires a device namespace", dev)
		}
		e := ns.stateOf(dev)
		switch {
		case e == nil:
			return fmt.Errorf("kernel: namespace %s: no room for %s: it holds %d namespaced devices, the most", ns.name, dev, maxNamespaced)
		case e.dev == "":
			e.dev = dev
			if spec.New != nil {
				e.state = spec.New()
			}
		}
		state = e.state
	}
	lm.refs++
	*h = Handle{mod: lm, dev: dev, state: state, open: true}
	return nil
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
