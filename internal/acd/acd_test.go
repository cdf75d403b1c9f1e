package acd

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

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
		if err := LoadAll(p, k, Modules(e, k.Release())); err != nil {
			t.Fatal(err)
		}
		for _, dev := range RequiredDevices() {
			if !k.HasDevice(dev) {
				t.Errorf("device %s missing after LoadAll", dev)
			}
		}
		// Idempotent.
		if err := LoadAll(p, k, Modules(e, k.Release())); err != nil {
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
		if err := LoadAll(p, k, Modules(e, k.Release())); err != nil {
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
		LoadAll(p, k, Modules(e, k.Release()))
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
		LoadAll(p, k, Modules(e, k.Release()))
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

func TestAlarmFiresOnVirtualClock(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewAlarm(e)
	var firedAt sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		a.Set(3*time.Second, func() { firedAt = e.Now() })
	})
	e.Run()
	if firedAt != sim.Time(3*time.Second) {
		t.Fatalf("alarm fired at %v, want 3s", firedAt)
	}
	if a.Fired() != 1 || a.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d", a.Fired(), a.Pending())
	}
}

func TestAlarmCancel(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewAlarm(e)
	fired := false
	e.Spawn("x", func(p *sim.Proc) {
		id := a.Set(time.Second, func() { fired = true })
		if !a.Cancel(id) {
			t.Error("cancel of pending alarm failed")
		}
		if a.Cancel(id) {
			t.Error("second cancel succeeded")
		}
	})
	e.Run()
	if fired {
		t.Fatal("cancelled alarm fired")
	}
}

func TestLoggerRingBuffer(t *testing.T) {
	l := NewLogger(100)
	l.Write("zygote", "preloading classes")  // 8+6+18 = 32
	l.Write("zygote", "preloading resource") // 33
	l.Write("am", "start offloadproc0")      // 28
	if got := len(l.Read()); got != 3 {
		t.Fatalf("entries = %d, want 3", got)
	}
	l.Write("am", "another entry here") // forces eviction
	if l.Dropped() == 0 {
		t.Fatal("ring buffer never evicted")
	}
	if l.Used() > 100 {
		t.Fatalf("used %d exceeds capacity", l.Used())
	}
	got := l.Read()
	if got[len(got)-1].Msg != "another entry here" {
		t.Fatal("newest entry missing after eviction")
	}
}

func TestLoggerOversizeEntry(t *testing.T) {
	l := NewLogger(16)
	l.Write("t", "this message is far larger than the buffer")
	if len(l.Read()) != 0 || l.Dropped() != 1 {
		t.Fatalf("oversize entry handling: entries=%d dropped=%d", len(l.Read()), l.Dropped())
	}
}

// refLogger is the logger as it was before the byte ring: whole messages in
// a slice that drops its head on eviction.
type refLogger struct {
	capBytes, used, dropped int
	entries                 []LogEntry
}

func (l *refLogger) write(e LogEntry) {
	sz := len(e.Tag) + len(e.Msg) + 8
	for l.used+sz > l.capBytes && len(l.entries) > 0 {
		l.used -= len(l.entries[0].Tag) + len(l.entries[0].Msg) + 8
		l.entries = l.entries[1:]
		l.dropped++
	}
	if sz > l.capBytes {
		l.dropped++
		return
	}
	l.entries = append(l.entries, e)
	l.used += sz
}

// TestLoggerMatchesWholeMessageRing: over random writes of 0 to 9 parts,
// including entries larger than the buffer, into rings small enough to
// wrap and large enough to grow while wrapped, the byte ring reads back,
// charges and drops exactly what the whole-message logger did.
func TestLoggerMatchesWholeMessageRing(t *testing.T) {
	words := []string{"", "a", "task ", "Linpack", ".", "solve", " done: ", "n=24 residual=1.2e-16", strings.Repeat("x", 90), strings.Repeat("y", 300)}
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		capBytes := 40 + r.Intn(3000)
		l, ref := NewLogger(capBytes), &refLogger{capBytes: capBytes}
		for i := 0; i < 300; i++ {
			tag := words[r.Intn(4)]
			parts := make([]string, r.Intn(10))
			for j := range parts {
				parts[j] = words[r.Intn(len(words))]
			}
			l.Write(tag, parts...)
			ref.write(LogEntry{Tag: tag, Msg: strings.Join(parts, "")})
			if l.Used() != ref.used || l.Dropped() != ref.dropped {
				t.Fatalf("seed %d write %d: used %d dropped %d, whole-message ring %d and %d",
					seed, i, l.Used(), l.Dropped(), ref.used, ref.dropped)
			}
			if got := l.Read(); !reflect.DeepEqual(got, append([]LogEntry{}, ref.entries...)) {
				t.Fatalf("seed %d write %d: read %q, whole-message ring %q", seed, i, got, ref.entries)
			}
		}
	}
}

// TestLoggerWriteAllocs: logging a line made of strings the caller holds
// allocates nothing once the ring has grown to its steady size.
func TestLoggerWriteAllocs(t *testing.T) {
	l := NewLogger(4096)
	app, method, out := "Linpack", "solve", "n=24 residual=1.2e-16"
	write := func() { l.Write("offload", "task ", app, ".", method, " done: ", out) }
	for i := 0; i < 1000; i++ {
		write()
	}
	if n := testing.AllocsPerRun(1000, write); n != 0 {
		t.Fatalf("Logger.Write allocates %.1f times a line in steady state, want 0", n)
	}
}

func TestAshmemPinLifecycle(t *testing.T) {
	a := NewAshmem()
	r, err := a.Create("dalvik-heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBytes() != 1<<20 {
		t.Fatalf("total = %d", a.TotalBytes())
	}
	if freed := a.Shrink(); freed != 0 {
		t.Fatalf("shrink reclaimed pinned region: %d", freed)
	}
	a.Unpin(r.ID)
	if freed := a.Shrink(); freed != 1<<20 {
		t.Fatalf("shrink freed %d, want 1MiB", freed)
	}
	if err := a.Pin(r.ID); !errors.Is(err, ErrRegionFreed) {
		t.Fatalf("pin after reclaim: err = %v, want ErrRegionFreed", err)
	}
}

func TestAshmemValidation(t *testing.T) {
	a := NewAshmem()
	if _, err := a.Create("bad", 0); err == nil {
		t.Fatal("zero-size region created")
	}
	if err := a.Pin(42); err == nil {
		t.Fatal("pin of unknown region succeeded")
	}
}

func TestModuleVersionTargetsKernel(t *testing.T) {
	e := sim.NewEngine(1)
	h := host.New(e, host.CloudServer())
	wrongKernel := kernel.New(e, h, "4.9.0")
	e.Spawn("init", func(p *sim.Proc) {
		// ACD built for 3.18.0 must not insert into a 4.9.0 kernel.
		mods := Modules(e, "3.18.0")
		if err := wrongKernel.Load(p, mods[0]); !errors.Is(err, kernel.ErrVersionMagic) {
			t.Errorf("err = %v, want ErrVersionMagic", err)
		}
	})
	e.Run()
}
