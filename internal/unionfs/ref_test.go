package unionfs

import (
	"fmt"
	"math/rand"
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// refWorld is one of the twins TestReadRefEqualsRead drives: a random layer
// stack mounted on one host (and its shared layer on a second), refs resolved
// before anything ran, and a log of everything observable.
type refWorld struct {
	e      *sim.Engine
	hosts  [2]*host.Host
	m      *Mount   // the mount under test; replaced by its clone mid-run
	other  *Mount   // the shared layer again, on the second host
	layers []*Layer // every layer ever stacked, in creation order
	paths  []string // every path any layer holds, plus one nobody does
	refs   map[string][]Ref
	log    []string
}

func (w *refWorld) logf(format string, a ...any) { w.log = append(w.log, fmt.Sprintf(format, a...)) }

// state appends what a read may leave behind: every file's access mark and
// its residency on both hosts, and both caches' sizes.
func (w *refWorld) state() {
	for _, l := range w.layers {
		for _, p := range sortedPaths(l) {
			n := l.files[p]
			w.logf("  %s:%s accessed=%v cached=%v/%v", l.name, p, n.accessed,
				l.CachedOn(w.hosts[0], p), l.CachedOn(w.hosts[1], p))
		}
	}
	w.logf("  cached files %d/%d at %v", w.hosts[0].CachedFiles(), w.hosts[1].CachedFiles(), w.e.Now())
}

// newRefWorld builds the stack rng describes: a read-only shared layer (on
// disk, or a frozen tmpfs), maybe a template snapshot with a copy-up and a
// whiteout frozen in, an upper that may start non-empty, direct I/O or not.
func newRefWorld(rng *rand.Rand) *refWorld {
	w := &refWorld{e: sim.NewEngine(1), refs: make(map[string][]Ref)}
	for i := range w.hosts {
		w.hosts[i] = host.New(w.e, host.Config{
			Name: fmt.Sprintf("h%d", i), Cores: 2, CoreMops: 1000, MemMB: 4096,
			DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000,
		})
	}
	for i := 0; i < 6; i++ {
		w.paths = append(w.paths, fmt.Sprintf("/system/f%d", i))
	}
	w.paths = append(w.paths, "/data/a", "/data/b", "/nowhere")
	size := func() host.Bytes { return host.Bytes(1+rng.Intn(64)) * host.KB }

	base := NewLayer("base", false)
	if rng.Intn(4) == 0 {
		base = NewTmpfs("base")
	}
	for _, p := range w.paths[:6] {
		base.AddFile(p, size(), []byte(p))
	}
	shared := base.Snapshot("shared") // read-only, on disk or in memory
	foreign := NewLayer("foreign", true)
	w.layers = append(w.layers, shared, foreign)
	for _, p := range w.paths[:8] {
		w.refs[p] = append(w.refs[p], foreign.AddFile(p, size(), nil)) // a layer no mount stacks
	}

	lowers := []*Layer{shared}
	if rng.Intn(2) == 0 {
		booted := NewLayer("booted", false)
		booted.AddFile(w.paths[0], size(), []byte("copied up")) // shadows shared
		booted.AddFile("/data/a", size(), nil)
		booted.wh = map[string]bool{w.paths[1]: true} // hides shared
		tmpl := booted.Snapshot("template")
		lowers = []*Layer{tmpl, shared}
		w.layers = append(w.layers, tmpl)
	}
	upper := NewLayer("upper", false)
	if rng.Intn(2) == 0 {
		upper.AddFile(w.paths[2], size(), nil)
		upper.AddFile("/data/b", size(), nil)
	}
	w.layers = append(w.layers, upper)
	for _, l := range append([]*Layer{upper}, lowers...) {
		for _, p := range sortedPaths(l) {
			r, _ := l.Ref(p)
			w.refs[p] = append(w.refs[p], r) // read-only and writable layers alike
		}
	}
	w.m, _ = NewMount(w.hosts[0], "m", upper, lowers...)
	w.m.SetDirectIO(rng.Intn(5) == 0)
	otherUpper := NewLayer("other-upper", false)
	w.layers = append(w.layers, otherUpper)
	w.other, _ = NewMount(w.hosts[1], "other", otherUpper, shared)
	if rng.Intn(2) == 0 {
		shared.WarmCacheOn(w.hosts[0])
	}
	return w
}

// run performs steps random operations, reading through refs or by path.
func (w *refWorld) run(rng *rand.Rand, steps int, byRef bool) {
	w.e.Spawn("ops", func(p *sim.Proc) {
		for i := 0; i < steps; i++ {
			path := w.paths[rng.Intn(len(w.paths))]
			m := w.m
			if rng.Intn(4) == 0 {
				m = w.other
			}
			eff := []float64{1.0, 0.5}[rng.Intn(2)]
			switch op := rng.Intn(12); {
			case op < 6:
				refs, pick := w.refs[path], rng.Intn(4)
				var size host.Bytes
				var data []byte
				var err error
				if byRef && pick < len(refs) {
					size, data, err = m.ReadRef(p, refs[pick], eff)
				} else {
					size, data, err = m.Read(p, path, eff)
				}
				w.logf("%d read %s via %s: %d %q %v", i, path, m.name, size, data, err)
			case op < 8:
				w.logf("%d write %s via %s: %v", i, path, m.name, m.Write(p, path, host.Bytes(1+rng.Intn(32))*host.KB, nil, eff))
			case op == 8:
				w.logf("%d remove %s via %s: %v", i, path, m.name, m.Remove(path))
			case op == 9:
				h := w.hosts[rng.Intn(2)]
				h.DropCaches()
				w.logf("%d drop caches on %s", i, h.Config().Name)
			case op == 10:
				l := w.layers[rng.Intn(len(w.layers))]
				l.DropCacheOn(w.hosts[rng.Intn(2)])
				w.logf("%d drop layer %s", i, l.name)
			default:
				// Template-clone the mount: its refs into the old upper now
				// name a layer the clone does not stack; the frozen copy's
				// are refs into a read-only layer above the shared one.
				tmpl := w.m.Upper().Snapshot(fmt.Sprintf("tmpl%d", i))
				upper := NewLayer(fmt.Sprintf("upper%d", i), false)
				w.m, _ = cloneOf(w.m, fmt.Sprintf("clone%d", i), upper, tmpl)
				w.layers = append(w.layers, tmpl, upper)
				for _, q := range sortedPaths(tmpl) {
					r, _ := tmpl.Ref(q)
					w.refs[q] = append(w.refs[q], r)
				}
				w.logf("%d clone", i)
			}
			w.state()
		}
	})
	w.e.Run()
}

// TestReadRefEqualsRead: ReadRef(ref) is Read(ref.Path()) by contract. Twin
// worlds built and driven by the same seed, one reading through refs and one
// by path, must agree on every result, on virtual time, on every file's
// access marks and on every file's residency on both hosts — across
// whiteouts, copy-ups, removes, template clones, refs into writable layers
// and into layers the mount does not stack, direct I/O, tmpfs, and cache
// drops of a host or a layer.
func TestReadRefEqualsRead(t *testing.T) {
	lines := 0
	for seed := int64(1); seed <= 200; seed++ {
		var logs [2][]string
		for i, byRef := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			w := newRefWorld(rng)
			w.run(rng, 60, byRef)
			logs[i] = w.log
		}
		if len(logs[0]) != len(logs[1]) {
			t.Fatalf("seed %d: %d log lines by ref, %d by path", seed, len(logs[0]), len(logs[1]))
		}
		for i := range logs[0] {
			if logs[0][i] != logs[1][i] {
				t.Fatalf("seed %d: by ref and by path diverge at line %d:\n  ref:  %s\n  path: %s", seed, i, logs[0][i], logs[1][i])
			}
		}
		lines += len(logs[0])
	}
	if lines == 0 {
		t.Fatal("nothing was logged; the test observes nothing")
	}
}

// TestCachedReadRefAllocatesNothing: the boot path's read — a resolved file
// of the warmed shared layer under a container's delta — touches no heap.
func TestCachedReadRefAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	h := newTestHost(e)
	shared := NewLayer("shared", true)
	ref := shared.AddFile("/system/framework/framework_0007.jar", 3*host.MB, nil)
	shared.WarmCacheOn(h)
	upper := NewLayer("delta", false)
	upper.AddFile("/data/local.prop", host.KB, nil)
	m, _ := NewMount(h, "c1", upper, shared)
	var allocs float64
	e.Spawn("boot", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			if _, _, err := m.ReadRef(p, ref, 0.93); err != nil {
				t.Error(err)
			}
		})
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("a cached ReadRef allocates %v times", allocs)
	}
}

// TestResidencyIsPerHost: a file's residency names the host that cached it,
// so a layer warmed on one host is a miss — a disk read — on another.
func TestResidencyIsPerHost(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := newTestHost(e), newTestHost(e)
	shared := NewLayer("shared", true)
	ref := shared.AddFile("/system/lib.so", 100*host.MB, nil)
	shared.WarmCacheOn(a)
	if !shared.CachedOn(a, "/system/lib.so") || shared.CachedOn(b, "/system/lib.so") {
		t.Fatal("warming on host a must make the file resident on a and only on a")
	}
	mb, _ := NewMount(b, "on-b", NewLayer("delta", false), shared)
	var cold sim.Time
	e.Spawn("r", func(p *sim.Proc) {
		if _, _, err := mb.ReadRef(p, ref, 1.0); err != nil {
			t.Error(err)
		}
		cold = e.Now()
	})
	e.Run()
	if cold.Duration().Seconds() < 0.9 { // 100 MB at 100 MB/s
		t.Fatalf("host b read a file cached only on host a in %v: it shared a's cache", cold.Duration())
	}
	if a.CachedFiles() != 0 || b.CachedFiles() != 1 || !shared.CachedOn(b, "/system/lib.so") {
		t.Fatalf("after b's read: %d files on a, %d on b; want the file resident on b alone", a.CachedFiles(), b.CachedFiles())
	}
}
