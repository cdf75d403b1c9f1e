package kernel

import (
	"errors"
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// hasDevice reports whether a loaded module provides dev.
func hasDevice(k *Kernel, dev string) bool {
	_, ok := k.devices[dev]
	return ok
}

func newHarness() (*sim.Engine, *Kernel) {
	e := sim.NewEngine(1)
	h := host.New(e, host.CloudServer())
	return e, New(e, h, "3.18.0")
}

func binderLikeModule() *Module {
	return &Module{
		Name:     "test_binder",
		VerMagic: "3.18.0",
		SizeKB:   180,
		LoadCost: 4,
		Devices: []DeviceSpec{
			{Name: "/dev/binder", Namespaced: true, New: func() any { return map[string]int{} }},
		},
	}
}

func TestLoadProvidesDevice(t *testing.T) {
	e, k := newHarness()
	e.Spawn("init", func(p *sim.Proc) {
		if hasDevice(k, "/dev/binder") {
			t.Error("device present before load")
		}
		if err := k.Load(p, binderLikeModule()); err != nil {
			t.Error(err)
		}
		if !hasDevice(k, "/dev/binder") || !k.Loaded("test_binder") {
			t.Error("device or module missing after load")
		}
	})
	e.Run()
}

func TestVersionMagicMismatch(t *testing.T) {
	e, k := newHarness()
	e.Spawn("init", func(p *sim.Proc) {
		m := binderLikeModule()
		m.VerMagic = "4.4.0"
		if err := k.Load(p, m); !errors.Is(err, ErrVersionMagic) {
			t.Errorf("err = %v, want ErrVersionMagic", err)
		}
	})
	e.Run()
}

func TestDoubleLoad(t *testing.T) {
	e, k := newHarness()
	e.Spawn("init", func(p *sim.Proc) {
		k.Load(p, binderLikeModule())
		if err := k.Load(p, binderLikeModule()); !errors.Is(err, ErrModuleLoaded) {
			t.Errorf("err = %v, want ErrModuleLoaded", err)
		}
	})
	e.Run()
}

func TestOpenWithoutModuleIsENODEV(t *testing.T) {
	e, k := newHarness()
	ns := k.NewNamespace("c1")
	e.Spawn("init", func(p *sim.Proc) {
		if err := k.Open(&ns, "/dev/binder", new(Handle)); !errors.Is(err, ErrNoDevice) {
			t.Errorf("err = %v, want ErrNoDevice", err)
		}
	})
	e.Run()
}

func TestNamespaceIsolation(t *testing.T) {
	e, k := newHarness()
	ns1, ns2 := k.NewNamespace("c1"), k.NewNamespace("c2")
	e.Spawn("init", func(p *sim.Proc) {
		if err := k.Load(p, binderLikeModule()); err != nil {
			t.Fatal(err)
		}
		var h1, h2, h1b Handle
		if err := k.Open(&ns1, "/dev/binder", &h1); err != nil {
			t.Fatal(err)
		}
		if err := k.Open(&ns2, "/dev/binder", &h2); err != nil {
			t.Fatal(err)
		}
		// Distinct per-namespace state.
		h1.State().(map[string]int)["svc"] = 1
		if len(h2.State().(map[string]int)) != 0 {
			t.Error("namespaces share driver state")
		}
		// Same namespace reopens the same state.
		k.Open(&ns1, "/dev/binder", &h1b)
		if len(h1b.State().(map[string]int)) != 1 {
			t.Error("reopen in same namespace lost state")
		}
	})
	e.Run()
}

// A non-namespaced device (Ashmem's) is one node every namespace opens,
// holding no state; Load refuses a state factory on one.
func TestSharedDeviceCarriesNoState(t *testing.T) {
	e, k := newHarness()
	ns1, ns2 := k.NewNamespace("c1"), k.NewNamespace("c2")
	e.Spawn("init", func(p *sim.Proc) {
		stateful := &Module{Name: "test_ashmem", VerMagic: "3.18.0", SizeKB: 28,
			Devices: []DeviceSpec{{Name: "/dev/ashmem", New: func() any { return map[string]int{} }}}}
		if err := k.Load(p, stateful); err == nil || hasDevice(k, "/dev/ashmem") {
			t.Fatalf("a non-namespaced device with a state factory loaded (err %v)", err)
		}
		m := &Module{Name: "test_ashmem", VerMagic: "3.18.0", SizeKB: 28,
			Devices: []DeviceSpec{{Name: "/dev/ashmem"}}}
		if err := k.Load(p, m); err != nil {
			t.Fatal(err)
		}
		for _, ns := range []*Namespace{&ns1, &ns2, nil} {
			var h Handle
			if err := k.Open(ns, "/dev/ashmem", &h); err != nil {
				t.Fatal(err)
			}
			if h.State() != nil {
				t.Errorf("shared device carries state %v", h.State())
			}
			h.Close()
		}
		if err := k.Unload("test_ashmem"); err != nil {
			t.Error(err)
		}
	})
	e.Run()
}

func TestUnloadRefcounting(t *testing.T) {
	e, k := newHarness()
	ns := k.NewNamespace("c1")
	e.Spawn("init", func(p *sim.Proc) {
		k.Load(p, binderLikeModule())
		var h Handle
		k.Open(&ns, "/dev/binder", &h)
		if err := k.Unload("test_binder"); !errors.Is(err, ErrModuleInUse) {
			t.Errorf("unload with open handle: err = %v, want ErrModuleInUse", err)
		}
		if err := h.Close(); err != nil {
			t.Error(err)
		}
		if err := h.Close(); err == nil {
			t.Error("double close succeeded")
		}
		if err := k.Unload("test_binder"); err != nil {
			t.Errorf("unload after close: %v", err)
		}
		if hasDevice(k, "/dev/binder") {
			t.Error("device survives unload")
		}
		if k.ModuleMemKB() != 0 {
			t.Errorf("module memory = %d KB after unload", k.ModuleMemKB())
		}
	})
	e.Run()
}

func TestUnloadMissing(t *testing.T) {
	_, k := newHarness()
	if err := k.Unload("ghost"); !errors.Is(err, ErrNoModule) {
		t.Fatalf("err = %v, want ErrNoModule", err)
	}
}

func TestDeviceCollision(t *testing.T) {
	e, k := newHarness()
	e.Spawn("init", func(p *sim.Proc) {
		k.Load(p, binderLikeModule())
		clash := &Module{Name: "other", VerMagic: "3.18.0", SizeKB: 1,
			Devices: []DeviceSpec{{Name: "/dev/binder"}}}
		if err := k.Load(p, clash); !errors.Is(err, ErrDeviceExists) {
			t.Errorf("err = %v, want ErrDeviceExists", err)
		}
	})
	e.Run()
}

func TestLsmodAndMemory(t *testing.T) {
	e, k := newHarness()
	e.Spawn("init", func(p *sim.Proc) {
		k.Load(p, binderLikeModule())
		m2 := &Module{Name: "alpha", VerMagic: "3.18.0", SizeKB: 20}
		k.Load(p, m2)
		ls := k.Lsmod()
		if len(ls) != 2 || ls[0] != "alpha" || ls[1] != "test_binder" {
			t.Errorf("lsmod = %v", ls)
		}
		if k.ModuleMemKB() != 200 {
			t.Errorf("module mem = %d KB, want 200", k.ModuleMemKB())
		}
	})
	e.Run()
}

func TestLoadTakesTime(t *testing.T) {
	e, k := newHarness()
	var took sim.Time
	e.Spawn("init", func(p *sim.Proc) {
		t0 := e.Now()
		k.Load(p, binderLikeModule())
		took = e.Now() - t0
	})
	e.Run()
	if took <= 0 {
		t.Fatal("module load was instantaneous")
	}
}

// acdLikeModules mirrors the Android Container Driver's shape: four modules,
// five devices, one of them kernel-global and stateless.
func acdLikeModules() []*Module {
	state := func() any { return new(int) }
	return []*Module{
		{Name: "m_binder", VerMagic: "3.18.0", SizeKB: 180, LoadCost: 4,
			Devices: []DeviceSpec{{Name: "/dev/binder", Namespaced: true, New: state}}},
		{Name: "m_alarm", VerMagic: "3.18.0", SizeKB: 24, LoadCost: 1,
			Devices: []DeviceSpec{{Name: "/dev/alarm", Namespaced: true, New: state}}},
		{Name: "m_logger", VerMagic: "3.18.0", SizeKB: 32, LoadCost: 1,
			Devices: []DeviceSpec{{Name: "/dev/log/main", Namespaced: true, New: state}, {Name: "/dev/log/events", Namespaced: true, New: state}}},
		{Name: "m_ashmem", VerMagic: "3.18.0", SizeKB: 28, LoadCost: 1,
			Devices: []DeviceSpec{{Name: "/dev/ashmem"}}},
	}
}

// loadUnloadAllocs is what inserting and removing the four modules costs
// once the kernel has seen them: nothing. It was 13 for the load alone while
// every load concatenated the .ko's page-cache key and rebuilt the module's
// record and an empty shared-state map, and 1 while the kernel-global
// device still made state at load.
const loadUnloadAllocs = 0

func TestLoadUnloadAllocs(t *testing.T) {
	e, k := newHarness()
	mods := acdLikeModules()
	cycle := func(p *sim.Proc) {
		for _, m := range mods {
			if err := k.Load(p, m); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range mods {
			if err := k.Unload(m.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	var allocs float64
	e.Spawn("fence", func(p *sim.Proc) {
		cycle(p) // the first load makes the records and grows the maps
		allocs = testing.AllocsPerRun(100, func() { cycle(p) })
	})
	e.Run()
	t.Logf("a load + unload of %d modules allocates %.0f objects", len(mods), allocs)
	if allocs > loadUnloadAllocs {
		t.Fatalf("a load + unload of %d modules allocates %.0f objects, fence is %d", len(mods), allocs, loadUnloadAllocs)
	}
}

// A record kept across an unload must behave like no record: the module is
// gone from Loaded, Lsmod, the device table and the memory count, a reload
// serves its device again, and a different spec under the same name
// replaces the record.
func TestReloadAfterUnload(t *testing.T) {
	e, k := newHarness()
	m := acdLikeModules()[3]
	ns := k.NewNamespace("c1")
	e.Spawn("init", func(p *sim.Proc) {
		if err := k.Load(p, m); err != nil {
			t.Fatal(err)
		}
		var h Handle
		if err := k.Open(&ns, "/dev/ashmem", &h); err != nil {
			t.Fatal(err)
		}
		h.Close()
		if err := k.Unload(m.Name); err != nil {
			t.Fatal(err)
		}
		if k.Loaded(m.Name) || len(k.Lsmod()) != 0 || hasDevice(k, "/dev/ashmem") || k.ModuleMemKB() != 0 {
			t.Fatalf("unloaded module still visible: loaded=%v lsmod=%v dev=%v mem=%d",
				k.Loaded(m.Name), k.Lsmod(), hasDevice(k, "/dev/ashmem"), k.ModuleMemKB())
		}
		if err := k.Unload(m.Name); !errors.Is(err, ErrNoModule) {
			t.Errorf("second unload: err = %v, want ErrNoModule", err)
		}
		if err := k.Open(&ns, "/dev/ashmem", &h); !errors.Is(err, ErrNoDevice) {
			t.Errorf("open after unload: err = %v, want ErrNoDevice", err)
		}
		if err := k.Load(p, m); err != nil {
			t.Fatal(err)
		}
		if err := k.Open(&ns, "/dev/ashmem", &h); err != nil {
			t.Fatal(err)
		}
		h.Close()
		k.Unload(m.Name)
		other := &Module{Name: m.Name, VerMagic: "3.18.0", SizeKB: 5,
			Devices: []DeviceSpec{{Name: "/dev/other"}}}
		if err := k.Load(p, other); err != nil {
			t.Fatal(err)
		}
		if !hasDevice(k, "/dev/other") || hasDevice(k, "/dev/ashmem") || k.ModuleMemKB() != 5 {
			t.Errorf("a new spec under an old name kept the old record")
		}
	})
	e.Run()
}

// A namespace's table is fixed: it opens maxNamespaced namespaced devices,
// reopening one returns the state it made, and one device more fails without
// disturbing the others. Reopening allocates nothing.
func TestNamespaceTable(t *testing.T) {
	e, k := newHarness()
	made := 0
	m := &Module{Name: "many", VerMagic: "3.18.0", SizeKB: 1}
	for i := 0; i <= maxNamespaced; i++ {
		m.Devices = append(m.Devices, DeviceSpec{Name: "/dev/ns" + string(rune('a'+i)), Namespaced: true,
			New: func() any { made++; return new(int) }})
	}
	ns := k.NewNamespace("c1")
	e.Spawn("init", func(p *sim.Proc) {
		if err := k.Load(p, m); err != nil {
			t.Fatal(err)
		}
		states := make([]any, maxNamespaced)
		var h Handle
		allocs := testing.AllocsPerRun(1, func() {
			for i := range states {
				if err := k.Open(&ns, m.Devices[i].Name, &h); err != nil {
					t.Fatal(err)
				}
				states[i] = h.State()
				h.Close()
			}
		})
		// AllocsPerRun runs the body twice; the second run reopens.
		if made != maxNamespaced {
			t.Fatalf("%d states made for %d devices opened twice", made, maxNamespaced)
		}
		if allocs != 0 {
			t.Errorf("reopening %d devices allocates %.0f objects", maxNamespaced, allocs)
		}
		last := m.Devices[maxNamespaced].Name
		if err := k.Open(&ns, last, &h); err == nil {
			t.Fatalf("namespace opened %s past its %d entries", last, maxNamespaced)
		}
		for i, want := range states {
			if err := k.Open(&ns, m.Devices[i].Name, &h); err != nil || h.State() != want {
				t.Fatalf("%s after a refused open: %v, state moved %v", m.Devices[i].Name, err, h.State() != want)
			}
			h.Close()
		}
	})
	e.Run()
}
