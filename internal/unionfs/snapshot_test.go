package unionfs

import (
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// buildBootedMount assembles the template-capture shape: a shared read-only
// lower plus a booted upper holding boot artifacts and one whiteout hiding
// a shared file.
func buildBootedMount(t *testing.T, e *sim.Engine, h *host.Host) (*Mount, *Layer, *Layer) {
	t.Helper()
	shared := NewLayer("shared", true)
	shared.AddFile("/system/lib/libc.so", 100*host.KB, nil)
	shared.AddFile("/system/app/camera.apk", 200*host.KB, nil)
	upper := NewLayer("src-delta", false)
	m, err := NewMount(h, "src", upper, shared)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("boot", func(p *sim.Proc) {
		if err := m.Write(p, "/data/dalvik-cache/boot.art", 6*host.MB, []byte("art"), 1.0); err != nil {
			t.Error(err)
		}
		if err := m.Remove("/system/app/camera.apk"); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	return m, upper, shared
}

func TestSnapshotCloneCOW(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	src, upper, _ := buildBootedMount(t, e, h)

	tmpl := upper.Snapshot("template")
	if !tmpl.readOnly {
		t.Fatal("snapshot is not read-only")
	}
	clone, err := cloneOf(src, "clone", NewLayer("clone-delta", false), tmpl)
	if err != nil {
		t.Fatal(err)
	}

	// The clone sees the template's boot artifacts and the shared layer.
	if f, ok := clone.Stat("/data/dalvik-cache/boot.art"); !ok || f.Layer != "template" {
		t.Fatalf("clone stat boot.art = %+v, %v; want template copy", f, ok)
	}
	if f, ok := clone.Stat("/system/lib/libc.so"); !ok || f.Layer != "shared" {
		t.Fatalf("clone stat libc = %+v, %v; want shared copy", f, ok)
	}

	// Whiteouts frozen into the template keep hiding shared files.
	if _, ok := clone.Stat("/system/app/camera.apk"); ok {
		t.Fatal("whiteout did not survive cloning")
	}

	// Writes to the clone land in its own upper, never in the template or
	// the source mount.
	e.Spawn("w", func(p *sim.Proc) {
		if err := clone.Write(p, "/data/dalvik-cache/boot.art", 7*host.MB, nil, 1.0); err != nil {
			t.Error(err)
		}
		if err := clone.Write(p, "/data/local.prop", 1*host.KB, nil, 1.0); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if tmpl.Has("/data/local.prop") || tmpl.files["/data/dalvik-cache/boot.art"].size != 6*host.MB {
		t.Fatal("clone write leaked into the template layer")
	}
	if upper.Has("/data/local.prop") || upper.files["/data/dalvik-cache/boot.art"].size != 6*host.MB {
		t.Fatal("clone write leaked into the source upper layer")
	}
	if f, _ := clone.Stat("/data/dalvik-cache/boot.art"); f.Layer != "clone-delta" || f.Size != 7*host.MB {
		t.Fatalf("clone COW stat = %+v", f)
	}
	// The source mount still sees its own copy.
	if f, _ := src.Stat("/data/dalvik-cache/boot.art"); f.Layer != "src-delta" || f.Size != 6*host.MB {
		t.Fatalf("source stat after clone write = %+v", f)
	}
}

func TestSnapshotFrozenAgainstSourceWrites(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	src, upper, _ := buildBootedMount(t, e, h)
	tmpl := upper.Snapshot("template")
	clone, err := cloneOf(src, "clone", NewLayer("clone-delta", false), tmpl)
	if err != nil {
		t.Fatal(err)
	}

	// Post-capture writes to the source (code staging etc.) must not show
	// through the snapshot.
	e.Spawn("w", func(p *sim.Proc) {
		if err := src.Write(p, "/data/app/code.apk", 3*host.MB, nil, 1.0); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if tmpl.Has("/data/app/code.apk") {
		t.Fatal("source write after capture showed up in the snapshot")
	}
	if _, ok := clone.Stat("/data/app/code.apk"); ok {
		t.Fatal("source write after capture visible through the clone")
	}

	// Reads through the clone mark template nodes, not source nodes.
	e.Spawn("r", func(p *sim.Proc) {
		if _, _, err := clone.Read(p, "/data/dalvik-cache/boot.art", 1.0); err != nil {
			t.Error(err)
		}
	})
	for _, n := range upper.files {
		n.accessed = false
	}
	e.Run()
	if upper.files["/data/dalvik-cache/boot.art"].accessed {
		t.Fatal("clone read marked the source upper's node accessed")
	}
	if !tmpl.files["/data/dalvik-cache/boot.art"].accessed {
		t.Fatal("clone read did not mark the template node accessed")
	}
}

// Shared bytes are charged once: N clones over one template account the
// template's size a single time, with each clone adding only its delta.
func TestCloneAccountingCountsSharedOnce(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	src, upper, shared := buildBootedMount(t, e, h)
	tmpl := upper.Snapshot("template")

	var clones []*Mount
	for i := 0; i < 3; i++ {
		u := NewLayer("clone-delta", false)
		c, err := cloneOf(src, "clone", u, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		clones = append(clones, c)
	}
	e.Spawn("w", func(p *sim.Proc) {
		for _, c := range clones {
			if err := c.Write(p, "/data/scratch", 1*host.KB, nil, 1.0); err != nil {
				t.Error(err)
			}
		}
	})
	e.Run()

	// Platform-style accounting: shared + template charged once, each
	// clone charged only its upper.
	var perClone host.Bytes
	for _, c := range clones {
		perClone += c.Upper().Size()
	}
	total := shared.Size() + tmpl.Size() + perClone
	want := shared.Size() + tmpl.Size() + 3*host.KB
	if total != want {
		t.Fatalf("accounting = %d, want %d (shared chunks counted once)", total, want)
	}
	// Sanity: the naive sum (each clone's visible size) would charge the
	// template and shared layers three times.
	var naive host.Bytes
	for _, c := range clones {
		naive += visibleSize(c)
	}
	if naive <= total {
		t.Fatalf("naive per-clone sum %d should exceed deduplicated total %d", naive, total)
	}
}

// cloneOf is src's clone in a mount of its own, as a container makes one
// in storage it owns.
func cloneOf(src *Mount, name string, upper, tmpl *Layer) (*Mount, error) {
	m := new(Mount)
	if err := m.InitClone(src, name, upper, tmpl); err != nil {
		return nil, err
	}
	return m, nil
}
