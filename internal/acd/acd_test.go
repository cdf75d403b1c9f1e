package acd

import (
	"errors"
	"testing"

	"rattrap/internal/binder"
	"rattrap/internal/host"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
)

func newHarness() (*sim.Engine, *kernel.Kernel) {
	e := sim.NewEngine(1)
	h := host.New(e, host.CloudServer())
	return e, kernel.New(e, h, "3.18.0")
}

func TestLoadAllProvidesRequiredDevices(t *testing.T) {
	e, k := newHarness()
	e.Spawn("init", func(p *sim.Proc) {
		if err := LoadAll(p, k, Modules(k.Release())); err != nil {
			t.Fatal(err)
		}
		for _, dev := range RequiredDevices() {
			ns := k.NewNamespace("c-" + dev)
			var h kernel.Handle
			if err := k.Open(&ns, dev, &h); err != nil {
				t.Errorf("device %s missing after LoadAll: %v", dev, err)
			}
			h.Close()
		}
		// Idempotent.
		if err := LoadAll(p, k, Modules(k.Release())); err != nil {
			t.Errorf("second LoadAll: %v", err)
		}
	})
	e.Run()
}

func TestNoRebuildNeeded(t *testing.T) {
	// Loading ACD must not require any prior kernel state: a stock kernel
	// plus LoadAll equals a Rattrap-capable kernel.
	e, k := newHarness()
	e.Spawn("init", func(p *sim.Proc) {
		if len(k.Lsmod()) != 0 {
			t.Fatal("kernel not stock")
		}
		if err := LoadAll(p, k, Modules(k.Release())); err != nil {
			t.Fatal(err)
		}
		if len(k.Lsmod()) != 4 {
			t.Fatalf("lsmod = %v, want 4 ACD modules", k.Lsmod())
		}
	})
	e.Run()
}

func TestBinderPerNamespace(t *testing.T) {
	e, k := newHarness()
	e.Spawn("init", func(p *sim.Proc) {
		LoadAll(p, k, Modules(k.Release()))
		ns1, ns2 := k.NewNamespace("c1"), k.NewNamespace("c2")
		var h1, h2 kernel.Handle
		if err := k.Open(&ns1, DevBinder, &h1); err != nil {
			t.Fatal(err)
		}
		k.Open(&ns2, DevBinder, &h2)
		c1 := h1.State().(*binder.Context)
		c2 := h2.State().(*binder.Context)
		c1.Register("offloadcontroller", func(code uint32, d []byte) ([]byte, error) { return d, nil })
		if _, err := c2.Lookup("offloadcontroller"); err == nil {
			t.Error("binder service leaked across device namespaces")
		}
	})
	e.Run()
}

func TestUnloadAllBlockedByOpenHandles(t *testing.T) {
	e, k := newHarness()
	e.Spawn("init", func(p *sim.Proc) {
		LoadAll(p, k, Modules(k.Release()))
		ns := k.NewNamespace("c1")
		var h kernel.Handle
		k.Open(&ns, DevBinder, &h)
		if err := UnloadAll(k); !errors.Is(err, kernel.ErrModuleInUse) {
			t.Errorf("err = %v, want ErrModuleInUse", err)
		}
		h.Close()
		if err := UnloadAll(k); err != nil {
			t.Errorf("UnloadAll after close: %v", err)
		}
		if len(k.Lsmod()) != 0 {
			t.Errorf("modules remain: %v", k.Lsmod())
		}
	})
	e.Run()
}

// TestOnlyBinderCarriesState: every required device opens in a container's
// namespace, and Binder is the one whose handle carries driver state — a
// context of its own per namespace.
func TestOnlyBinderCarriesState(t *testing.T) {
	e, k := newHarness()
	e.Spawn("init", func(p *sim.Proc) {
		if err := LoadAll(p, k, Modules(k.Release())); err != nil {
			t.Fatal(err)
		}
		ns1, ns2 := k.NewNamespace("c1"), k.NewNamespace("c2")
		for _, dev := range RequiredDevices() {
			var h1, h2 kernel.Handle
			if err := k.Open(&ns1, dev, &h1); err != nil {
				t.Fatal(err)
			}
			if err := k.Open(&ns2, dev, &h2); err != nil {
				t.Fatal(err)
			}
			s1, s2 := h1.State(), h2.State()
			if dev == DevBinder {
				if _, ok := s1.(*binder.Context); !ok || s1 == s2 {
					t.Errorf("%s: states %p and %p, want a binder context per namespace", dev, s1, s2)
				}
			} else if s1 != nil || s2 != nil {
				t.Errorf("%s carries driver state %T", dev, s1)
			}
		}
	})
	e.Run()
}

func TestModuleVersionTargetsKernel(t *testing.T) {
	e := sim.NewEngine(1)
	h := host.New(e, host.CloudServer())
	wrongKernel := kernel.New(e, h, "4.9.0")
	e.Spawn("init", func(p *sim.Proc) {
		// ACD built for 3.18.0 must not insert into a 4.9.0 kernel.
		mods := Modules("3.18.0")
		if err := wrongKernel.Load(p, mods[0]); !errors.Is(err, kernel.ErrVersionMagic) {
			t.Errorf("err = %v, want ErrVersionMagic", err)
		}
	})
	e.Run()
}
