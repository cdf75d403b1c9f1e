package unionfs

import (
	"fmt"
	"path"
	"testing"
	"testing/quick"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

func newTestHost(e *sim.Engine) *host.Host {
	return host.New(e, host.Config{
		Name: "t", Cores: 2, CoreMops: 1000, MemMB: 4096,
		DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000,
	})
}

func TestUnionPrecedence(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	lower := NewLayer("system", true)
	lower.AddFile("/system/lib/libc.so", 100, nil)
	lower.AddFile("/system/app/browser.apk", 200, nil)
	upper := NewLayer("delta", false)
	upper.AddFile("/system/lib/libc.so", 50, nil) // container-local override
	m, err := NewMount(h, "c1", upper, lower)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := m.Stat("/system/lib/libc.so")
	if !ok || f.Layer != "delta" || f.Size != 50 {
		t.Fatalf("stat = %+v, want upper copy of 50 bytes", f)
	}
	f, ok = m.Stat("/system/app/browser.apk")
	if !ok || f.Layer != "system" {
		t.Fatalf("stat = %+v, want lower copy", f)
	}
}

func TestReadOnlyUpperRejected(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	if _, err := NewMount(h, "bad", NewLayer("ro", true)); err == nil {
		t.Fatal("mount with read-only upper succeeded")
	}
}

func TestCopyOnWrite(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	lower := NewLayer("system", true)
	lower.AddFile("/etc/hosts", 10*host.KB, nil)
	upper := NewLayer("delta", false)
	m, _ := NewMount(h, "c1", upper, lower)
	e.Spawn("w", func(p *sim.Proc) {
		if err := m.Write(p, "/etc/hosts", 12*host.KB, nil, 1.0); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if !upper.Has("/etc/hosts") {
		t.Fatal("write did not land in upper layer")
	}
	if lower.files["/etc/hosts"].size != 10*host.KB {
		t.Fatal("lower layer was modified")
	}
	f, _ := m.Stat("/etc/hosts")
	if f.Size != 12*host.KB || f.Layer != "delta" {
		t.Fatalf("stat after COW = %+v", f)
	}
}

func TestWhiteout(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	lower := NewLayer("system", true)
	lower.AddFile("/system/app/camera.apk", 100, nil)
	upper := NewLayer("delta", false)
	m, _ := NewMount(h, "c1", upper, lower)
	if err := m.Remove("/system/app/camera.apk"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Stat("/system/app/camera.apk"); ok {
		t.Fatal("removed file still visible")
	}
	if !lower.Has("/system/app/camera.apk") {
		t.Fatal("remove modified the read-only lower layer")
	}
	// Re-creating the file drops the whiteout.
	e.Spawn("w", func(p *sim.Proc) {
		if err := m.Write(p, "/system/app/camera.apk", 5, nil, 1.0); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if f, ok := m.Stat("/system/app/camera.apk"); !ok || f.Size != 5 {
		t.Fatalf("recreate after whiteout: %+v %v", f, ok)
	}
}

func TestRemoveUpperOnlyNoWhiteout(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	upper := NewLayer("delta", false)
	upper.AddFile("/tmp/x", 1, nil)
	m, _ := NewMount(h, "c1", upper)
	if err := m.Remove("/tmp/x"); err != nil {
		t.Fatal(err)
	}
	if upper.wh["/tmp/x"] {
		t.Fatal("needless whiteout created")
	}
	if err := m.Remove("/tmp/x"); err == nil {
		t.Fatal("removing a missing file succeeded")
	}
}

func TestSharedLayerAcrossMounts(t *testing.T) {
	// Two containers share a lower layer: bytes are stored once; each
	// upper holds only its delta — the 50x size reduction of §IV-C.
	e := sim.NewEngine(1)
	h := newTestHost(e)
	shared := NewLayer("shared-system", true)
	shared.AddFile("/system/framework/framework.jar", 300*host.MB, nil)
	u1 := NewLayer("c1-delta", false)
	u2 := NewLayer("c2-delta", false)
	m1, _ := NewMount(h, "c1", u1, shared)
	m2, _ := NewMount(h, "c2", u2, shared)
	e.Spawn("w", func(p *sim.Proc) {
		m1.Write(p, "/data/local.prop", 4*host.KB, nil, 1.0)
		m2.Write(p, "/data/local.prop", 4*host.KB, nil, 1.0)
	})
	e.Run()
	if m1.VisibleSize() != 300*host.MB+4*host.KB {
		t.Fatalf("visible size = %d", m1.VisibleSize())
	}
	total := shared.Size() + u1.Size() + u2.Size()
	if total != 300*host.MB+8*host.KB {
		t.Fatalf("stored total = %d, want shared data stored once", total)
	}
}

func TestSharedLayerPageCacheAcrossContainers(t *testing.T) {
	// Container 2 reading a shared-layer file after container 1 must hit
	// the page cache — the mechanism behind fast optimized-CAC boots.
	e := sim.NewEngine(1)
	h := newTestHost(e)
	shared := NewLayer("shared-system", true)
	shared.AddFile("/system/lib/libandroid.so", 50*host.MB, nil)
	m1, _ := NewMount(h, "c1", NewLayer("u1", false), shared)
	m2, _ := NewMount(h, "c2", NewLayer("u2", false), shared)
	var first, second time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		t0 := e.Now()
		m1.Read(p, "/system/lib/libandroid.so", 1.0)
		first = (e.Now() - t0).Duration()
		t0 = e.Now()
		m2.Read(p, "/system/lib/libandroid.so", 1.0)
		second = (e.Now() - t0).Duration()
	})
	e.Run()
	if second >= first/5 {
		t.Fatalf("cross-container cached read %v vs cold %v: cache not shared", second, first)
	}
}

// TestTmpfsFasterThanDisk: a write, and a ReadUpper of bytes the upper
// layer holds, cost a memory copy on a tmpfs upper and a disk operation on
// a disk upper.
func TestTmpfsFasterThanDisk(t *testing.T) {
	ops := map[string]func(p *sim.Proc, m *Mount){
		"write":     func(p *sim.Proc, m *Mount) { m.Write(p, "/f", 50*host.MB, nil, 1.0) },
		"ReadUpper": func(p *sim.Proc, m *Mount) { m.ReadUpper(p, 50*host.MB, 1.0) },
	}
	for name, op := range ops {
		e := sim.NewEngine(1)
		h := newTestHost(e)
		md, _ := NewMount(h, "d", NewLayer("disk", false))
		mm, _ := NewMount(h, "m", NewTmpfs("offload-io"))
		var dDisk, dMem, dCopy time.Duration
		e.Spawn("w", func(p *sim.Proc) {
			t0 := e.Now()
			op(p, md)
			dDisk = (e.Now() - t0).Duration()
			t0 = e.Now()
			op(p, mm)
			dMem = (e.Now() - t0).Duration()
			t0 = e.Now()
			h.MemCopy(p, 50*host.MB)
			dCopy = (e.Now() - t0).Duration()
		})
		e.Run()
		if dMem != dCopy || dMem >= dDisk {
			t.Errorf("%s: tmpfs %v, disk %v; want the memory copy's %v on tmpfs, faster than disk", name, dMem, dDisk, dCopy)
		}
	}
}

func TestAccessTracking(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	l := NewLayer("system", true)
	l.AddFile("/system/lib/used.so", 700, nil)
	l.AddFile("/system/lib/unused.so", 300, nil)
	m, _ := NewMount(h, "c", NewLayer("u", false), l)
	e.Spawn("w", func(p *sim.Proc) {
		if _, _, err := m.Read(p, "/system/lib/used.so", 1.0); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if l.AccessedSize() != 700 || l.NeverAccessedSize() != 300 {
		t.Fatalf("accessed=%d never=%d, want 700/300", l.AccessedSize(), l.NeverAccessedSize())
	}
	l.ResetAccess()
	if l.AccessedSize() != 0 {
		t.Fatal("ResetAccess did not clear marks")
	}
}

func TestReadMissingFile(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	m, _ := NewMount(h, "c", NewLayer("u", false))
	e.Spawn("w", func(p *sim.Proc) {
		if _, _, err := m.Read(p, "/nope", 1.0); err == nil {
			t.Error("read of missing file succeeded")
		}
	})
	e.Run()
}

func TestDataRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	m, _ := NewMount(h, "c", NewTmpfs("t"))
	blob := []byte("dex bytecode")
	e.Spawn("w", func(p *sim.Proc) {
		m.Write(p, "/warehouse/a.apk", host.Bytes(len(blob)), blob, 1.0)
		_, data, err := m.Read(p, "/warehouse/a.apk", 1.0)
		if err != nil || string(data) != string(blob) {
			t.Errorf("read back %q, %v", data, err)
		}
	})
	e.Run()
}

func TestSizeUnder(t *testing.T) {
	l := NewLayer("sys", true)
	l.AddFile("/system/a", 10, nil)
	l.AddFile("/system/b", 20, nil)
	l.AddFile("/data/c", 40, nil)
	if got := l.SizeUnder("/system"); got != 30 {
		t.Fatalf("SizeUnder(/system) = %d, want 30", got)
	}
	if got := l.Size(); got != 70 {
		t.Fatalf("Size = %d, want 70", got)
	}
}

func TestListDeterministicAndWhiteoutAware(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	lower := NewLayer("sys", true)
	lower.AddFile("/b", 1, nil)
	lower.AddFile("/a", 1, nil)
	lower.AddFile("/c", 1, nil)
	upper := NewLayer("u", false)
	m, _ := NewMount(h, "c", upper, lower)
	m.Remove("/b")
	files := m.List()
	if len(files) != 2 || files[0].Path != "/a" || files[1].Path != "/c" {
		t.Fatalf("List = %+v", files)
	}
}

// Property: for any sequence of writes then reads through a single-layer
// mount, Stat always reports the last written size.
func TestPropertyLastWriteWins(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		e := sim.NewEngine(1)
		h := newTestHost(e)
		m, _ := NewMount(h, "c", NewTmpfs("t"))
		ok := true
		e.Spawn("w", func(p *sim.Proc) {
			for _, s := range sizes {
				m.Write(p, "/x", host.Bytes(s), nil, 1.0)
			}
			got, _ := m.Stat("/x")
			ok = got.Size == host.Bytes(sizes[len(sizes)-1])
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: VisibleSize equals the sum of sizes returned by List.
func TestPropertyVisibleSizeMatchesList(t *testing.T) {
	f := func(paths []uint8, remove []uint8) bool {
		e := sim.NewEngine(1)
		h := newTestHost(e)
		lower := NewLayer("sys", true)
		for _, b := range paths {
			lower.AddFile("/f"+string(rune('a'+b%16)), host.Bytes(b)+1, nil)
		}
		m, _ := NewMount(h, "c", NewLayer("u", false), lower)
		for _, b := range remove {
			m.Remove("/f" + string(rune('a'+b%16))) // may fail; fine
		}
		var sum host.Bytes
		for _, f := range m.List() {
			sum += f.Size
		}
		return sum == m.VisibleSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFaultHook(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	m, err := NewMount(h, "w", NewTmpfs("scratch"))
	if err != nil {
		t.Fatal(err)
	}
	failing := true
	m.SetFault(func(p *sim.Proc, path string, size host.Bytes) error {
		if failing {
			return errInjected
		}
		p.Sleep(250 * time.Millisecond) // stall, then let the write land
		return nil
	})
	var stallEnd sim.Time
	e.Spawn("t", func(p *sim.Proc) {
		if err := m.Write(p, "/a", 100, nil, 1.0); err == nil {
			t.Error("faulted write succeeded")
		}
		if _, ok := m.Stat("/a"); ok {
			t.Error("failed write landed in the layer")
		}
		failing = false
		if err := m.Write(p, "/a", 100, nil, 1.0); err != nil {
			t.Errorf("stalled write failed: %v", err)
		}
		stallEnd = e.Now()
	})
	e.Run()
	if stallEnd < sim.Time(250*time.Millisecond) {
		t.Fatalf("stall hook did not delay the write: finished at %v", stallEnd)
	}
	if _, ok := m.Stat("/a"); !ok {
		t.Fatal("stalled write never landed")
	}
}

var errInjected = fmt.Errorf("test: injected write fault")

// FuzzClean pins the allocation-free shortcut in clean to the function it
// stands in for.
func FuzzClean(f *testing.F) {
	for _, p := range []string{"", "/", "//", "/a", "a", "/a/", "/a//b", "/a/./b", "/a/../b", "/..", "/.", "/a/..",
		"/a/...", "/.a", "/a/.b/..c", "a/b", "./a", "../a", "/data/dalvik-cache/system@offloadruntime.dex", "/a\x00/b"} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		if got, want := clean(p), path.Clean("/"+p); got != want {
			t.Fatalf("clean(%q) = %q, want %q", p, got, want)
		}
	})
}

func TestCleanAllocatesNothingOnCleanPaths(t *testing.T) {
	p := "/system/framework/framework_0007.jar"
	if n := testing.AllocsPerRun(100, func() { _ = clean(p) }); n != 0 {
		t.Fatalf("clean of a canonical path allocates %v times", n)
	}
}

// TestDropCacheOnForgetsPrivateLayer: a container's written and read
// private files leave the host page cache with DropCacheOn (and a removed
// file leaves at once); the shared layer's stay.
func TestDropCacheOnForgetsPrivateLayer(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	shared := NewLayer("shared", true)
	shared.AddFile("/system/lib.so", host.MB, nil)
	upper := NewLayer("c1-delta", false)
	upper.AddFile("/data/seed.db", host.MB, nil)
	m, _ := NewMount(h, "c1", upper, shared)
	e.Spawn("w", func(p *sim.Proc) {
		m.Read(p, "/system/lib.so", 1.0)
		m.Read(p, "/data/seed.db", 1.0)
		m.Write(p, "/data/boot.log", host.KB, nil, 1.0)
		m.Write(p, "/data/tmp", host.KB, nil, 1.0)
	})
	e.Run()
	private := []string{"/data/seed.db", "/data/boot.log", "/data/tmp"}
	for _, f := range private {
		if !upper.CachedOn(h, f) {
			t.Fatalf("c1-delta:%s not cached after I/O", f)
		}
	}
	if !shared.CachedOn(h, "/system/lib.so") {
		t.Fatal("shared:/system/lib.so not cached after I/O")
	}
	if err := m.Remove("/data/tmp"); err != nil {
		t.Fatal(err)
	}
	if upper.CachedOn(h, "/data/tmp") || h.CachedFiles() != 3 {
		t.Fatalf("removed file still cached (%d files resident, want 3)", h.CachedFiles())
	}
	upper.DropCacheOn(h)
	for _, f := range private {
		if upper.CachedOn(h, f) {
			t.Fatalf("c1-delta:%s still cached after DropCacheOn", f)
		}
	}
	if !shared.CachedOn(h, "/system/lib.so") || h.CachedFiles() != 1 {
		t.Fatal("DropCacheOn on the private layer evicted a shared-layer file")
	}
}
