package image

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"rattrap/internal/host"
	"rattrap/internal/unionfs"
)

// strippableBytes is the size of m's categories never accessed by
// offloading.
func strippableBytes(m Manifest) host.Bytes {
	var t host.Bytes
	for _, c := range m.Cats {
		if c.Strippable {
			t += c.Total
		}
	}
	return t
}

// fileRef names one file of a working set and its size.
type fileRef struct {
	Path string
	Size host.Bytes
}

// fileLists is m's working set by path, split as BuildLayer splits it.
func fileLists(m Manifest) (boot, onDemand []fileRef) {
	return workingSet(m.Cats, func(p string, size host.Bytes) fileRef { return fileRef{p, size} })
}

func TestPaperComposition(t *testing.T) {
	m := AndroidX86()
	// Entire OS ≈ 1.1 GB.
	if got := m.TotalBytes(); got != 1126*host.MB {
		t.Fatalf("total = %d MB, want 1126", got/host.MB)
	}
	// /system occupies 985 MB = 87.4% of the image.
	if got := m.SystemBytes(); got != 985*host.MB {
		t.Fatalf("/system = %d MB, want 985", got/host.MB)
	}
	frac := float64(m.SystemBytes()) / float64(m.TotalBytes())
	if frac < 0.870 || frac > 0.878 {
		t.Fatalf("/system fraction = %.3f, want ≈0.874", frac)
	}
	// 771 MB (68.4%) never accessed by offloading.
	if got := strippableBytes(m); got != 771*host.MB {
		t.Fatalf("strippable = %d MB, want 771", got/host.MB)
	}
	never := float64(strippableBytes(m)) / float64(m.TotalBytes())
	if never < 0.68 || never > 0.69 {
		t.Fatalf("never-accessed fraction = %.3f, want ≈0.684", never)
	}
}

func TestPaperRedundancyCounts(t *testing.T) {
	m := AndroidX86()
	for _, tc := range []struct {
		cat   string
		files int
	}{
		{"apps", 20},      // 20 built-in Android apps
		{"hwlib", 197},    // 197 shared library files (.so)
		{"modules", 4372}, // 4372 kernel modules (.ko)
		{"firmware", 396}, // 396 firmware libraries (.bin)
	} {
		c, ok := m.Category(tc.cat)
		if !ok || c.Files != tc.files {
			t.Errorf("category %s: files = %d, want %d", tc.cat, c.Files, tc.files)
		}
		if !c.Strippable {
			t.Errorf("category %s should be strippable", tc.cat)
		}
	}
}

func TestForContainerDropsVMOnly(t *testing.T) {
	full := AndroidX86()
	cont := full.ForContainer()
	if _, ok := cont.Category("boot"); ok {
		t.Fatal("container manifest still has /boot")
	}
	// Table I: container rootfs ≈ 1.02 GB.
	gb := float64(cont.TotalBytes()) / float64(host.GB)
	if gb < 1.0 || gb > 1.04 {
		t.Fatalf("container image = %.3f GB, want ≈1.02", gb)
	}
}

func TestCustomizedKeepsOnlyCore(t *testing.T) {
	cust := AndroidX86().Customized()
	for _, c := range cust.Cats {
		if c.Strippable || c.UIService || c.VMOnly {
			t.Fatalf("customized manifest still contains %s", c.Name)
		}
	}
	// Accessed set = total - strippable = 355 MB ≈ 31.6% of the image.
	full := AndroidX86()
	accessed := full.TotalBytes() - strippableBytes(full)
	if accessed != 355*host.MB {
		t.Fatalf("accessed set = %d MB, want 355", accessed/host.MB)
	}
	frac := float64(accessed) / float64(full.TotalBytes())
	if frac < 0.31 || frac > 0.32 {
		t.Fatalf("needed fraction = %.3f, want ≈0.316", frac)
	}
	// Customized = core minus VM-only minus UI services.
	want := accessed - 82*host.MB - 40*host.MB
	if cust.TotalBytes() != want {
		t.Fatalf("customized = %d MB, want %d", cust.TotalBytes()/host.MB, want/host.MB)
	}
}

func TestBuildLayerExactSizes(t *testing.T) {
	m := AndroidX86()
	l := m.BuildLayer("img", true).Layer
	if l.Size() != m.TotalBytes() {
		t.Fatalf("layer size %d != manifest %d", l.Size(), m.TotalBytes())
	}
	for _, c := range m.Cats {
		for i, p := range categoryPaths(c) {
			if r, ok := l.Ref(p); !ok || r.Size() != fileSize(c, i) {
				t.Fatalf("layer lacks %s of %d B", p, fileSize(c, i))
			}
		}
	}
	if got := l.SizeUnder("/system"); got != m.SystemBytes() {
		t.Fatalf("/system in layer = %d, want %d", got, m.SystemBytes())
	}
}

func TestBootAndOnDemandPartitionCore(t *testing.T) {
	m := AndroidX86().ForContainer()
	boot, onDemand := fileLists(m)
	var bootB, odB host.Bytes
	seen := make(map[string]bool)
	for _, f := range boot {
		bootB += f.Size
		if seen[f.Path] {
			t.Fatalf("duplicate boot file %s", f.Path)
		}
		seen[f.Path] = true
	}
	for _, f := range onDemand {
		odB += f.Size
		if seen[f.Path] {
			t.Fatalf("file %s in both boot and on-demand sets", f.Path)
		}
		seen[f.Path] = true
	}
	core := m.TotalBytes() - strippableBytes(m)
	if bootB+odB != core {
		t.Fatalf("boot %d + on-demand %d != core %d", bootB, odB, core)
	}
	if bootB <= 0 || odB <= 0 {
		t.Fatal("expected both boot and on-demand sets to be non-empty")
	}
}

func TestCustomizedBootSmallerThanFull(t *testing.T) {
	bootBytes := func(m Manifest) host.Bytes {
		boot, _ := fileLists(m)
		var sum host.Bytes
		for _, f := range boot {
			sum += f.Size
		}
		return sum
	}
	full := bootBytes(AndroidX86().ForContainer())
	cust := bootBytes(AndroidX86().Customized())
	if cust >= full {
		t.Fatalf("customized boot set %d MB not smaller than full %d MB", cust/host.MB, full/host.MB)
	}
}

func TestNoStrippableFilesInBootSet(t *testing.T) {
	boot, _ := fileLists(AndroidX86())
	for _, f := range boot {
		for _, dir := range []string{"/system/lib/hw", "/system/lib/modules", "/system/etc/firmware", "/system/app/", "/system/media", "/system/vendor"} {
			if strings.HasPrefix(f.Path, dir) {
				t.Fatalf("boot reads strippable file %s", f.Path)
			}
		}
	}
}

func TestFileSizesSumExactly(t *testing.T) {
	m := AndroidX86()
	for _, c := range m.Cats {
		var sum host.Bytes
		for i := 0; i < c.Files; i++ {
			sum += fileSize(c, i)
		}
		if sum != c.Total {
			t.Fatalf("category %s: files sum to %d, want %d", c.Name, sum, c.Total)
		}
	}
}

// referenceLists recomputes the boot and on-demand enumerations from the
// category table alone, the way every boot used to.
func referenceLists(m Manifest) (boot, onDemand []fileRef) {
	var perCat [][]fileRef
	for _, c := range m.Cats {
		if c.Strippable {
			continue
		}
		n := int(float64(c.Files)*c.BootFrac + 0.5)
		var rest []fileRef
		for i := 0; i < c.Files; i++ {
			ref := fileRef{Path: fmt.Sprintf("%s/%s_%04d%s", c.Dir, c.Name, i, c.Ext), Size: fileSize(c, i)}
			if i < n {
				boot = append(boot, ref)
			} else {
				rest = append(rest, ref)
			}
		}
		if len(rest) > 0 {
			perCat = append(perCat, rest)
		}
	}
	for i := 0; len(perCat) > 0; i++ { // round-robin across categories
		kept := perCat[:0]
		for _, refs := range perCat {
			if i < len(refs) {
				onDemand = append(onDemand, refs[i])
				kept = append(kept, refs)
			}
		}
		perCat = kept
	}
	return boot, onDemand
}

// TestFileListsBuiltOnce: the working set a manifest enumerates is the one
// a per-call enumeration of the category table produces — contents and
// order — for all three images and for a literal built outside the
// constructors; each category's paths are formatted once per process, so
// a second enumeration hands out the same strings; and a caller that
// appends to a shared path list cannot write into the next caller's.
func TestFileListsBuiltOnce(t *testing.T) {
	lit := Manifest{Name: "literal", Cats: AndroidX86().Customized().Cats}
	for _, m := range []Manifest{AndroidX86(), AndroidX86().ForContainer(), AndroidX86().Customized(), lit} {
		wantBoot, wantOnDemand := referenceLists(m)
		boot, onDemand := fileLists(m)
		if !reflect.DeepEqual(boot, wantBoot) {
			t.Fatalf("%s: the boot set differs from the per-call enumeration (%d vs %d files)", m.Name, len(boot), len(wantBoot))
		}
		if !reflect.DeepEqual(onDemand, wantOnDemand) {
			t.Fatalf("%s: the on-demand set differs from the per-call enumeration (%d vs %d files)", m.Name, len(onDemand), len(wantOnDemand))
		}
		again, _ := fileLists(m)
		for i, f := range again {
			if unsafe.StringData(f.Path) != unsafe.StringData(boot[i].Path) {
				t.Fatalf("%s: boot[%d] (%s): a second enumeration formatted the path again", m.Name, i, f.Path)
			}
		}
		for _, c := range m.Cats {
			a, b := categoryPaths(c), categoryPaths(c)
			if len(a) == 0 || &a[0] != &b[0] {
				t.Fatalf("%s: %s: the path list was rebuilt on a second call", m.Name, c.Name)
			}
			if cap(a) != len(a) {
				t.Fatalf("%s: %s: the shared path list has spare capacity a caller's append would write into", m.Name, c.Name)
			}
			first := append(a, "/intruder-1")
			second := append(b, "/intruder-2")
			if first[len(a)] != "/intruder-1" || second[len(b)] != "/intruder-2" {
				t.Fatalf("%s: %s: two callers' appends share one array", m.Name, c.Name)
			}
			if now := categoryPaths(c); !reflect.DeepEqual(now, a) {
				t.Fatalf("%s: %s: the path list changed after callers appended to it", m.Name, c.Name)
			}
		}
	}
}

// TestStockImagesBuiltOnce: AndroidX86, its ForContainer and its
// Customized each hand a caller its own category list, so editing one
// edits neither the stock image nor another caller's, and an edited
// manifest's derived images carry the edit; what is built once per
// process is the paths, so a second layer of the same image formats none
// and holds the first layer's strings.
func TestStockImagesBuiltOnce(t *testing.T) {
	for name, build := range map[string]func() Manifest{
		"AndroidX86":   AndroidX86,
		"ForContainer": func() Manifest { return AndroidX86().ForContainer() },
		"Customized":   func() Manifest { return AndroidX86().Customized() },
	} {
		a, b := build(), build()
		if &a.Cats[0] == &b.Cats[0] {
			t.Errorf("%s: two calls share one category list", name)
		}
		for _, c := range a.Cats {
			if allocs := testing.AllocsPerRun(20, func() { categoryPaths(c) }); allocs > 0 {
				t.Errorf("%s: %s: looking up the paths allocates %.0f objects, want 0", name, c.Name, allocs)
			}
		}
	}

	edited := AndroidX86()
	edited.Cats[1].Files = 7 // framework, which both derived images keep
	if AndroidX86().Cats[1].Files == 7 {
		t.Fatal("editing a caller's categories edited the stock image")
	}
	stock := map[string]Manifest{"ForContainer": AndroidX86().ForContainer(), "Customized": AndroidX86().Customized()}
	for name, d := range map[string]Manifest{"ForContainer": edited.ForContainer(), "Customized": edited.Customized()} {
		boot, _ := fileLists(d)
		stockBoot, _ := fileLists(stock[name])
		if c, _ := d.Category("framework"); c.Files != 7 || len(boot) == len(stockBoot) {
			t.Fatalf("%s of an edited manifest was served the stock image", name)
		}
	}

	m := AndroidX86().Customized()
	x, y := m.BuildLayer("x", true), m.BuildLayer("y", true)
	for i, r := range x.Boot {
		if unsafe.StringData(r.Path()) != unsafe.StringData(y.Boot[i].Path()) {
			t.Fatalf("Boot[%d] (%s): two layers hold two copies of the path", i, r.Path())
		}
	}
}

// TestImageRefsMatchFileLists: the handles an Image hands out are the
// working set its Manifest enumerates, resolved — same file at the same
// index, by path and size, and resolved against the Image's own layer —
// for all three images and for a literal built outside the constructors.
func TestImageRefsMatchFileLists(t *testing.T) {
	lit := Manifest{Name: "literal", Cats: AndroidX86().Customized().Cats}
	for _, m := range []Manifest{AndroidX86(), AndroidX86().ForContainer(), AndroidX86().Customized(), lit} {
		img := m.BuildLayer("img", true)
		wantBoot, wantOnDemand := fileLists(m)
		for name, set := range map[string]struct {
			refs  []unionfs.Ref
			files []fileRef
		}{"Boot": {img.Boot, wantBoot}, "OnDemand": {img.OnDemand, wantOnDemand}} {
			if len(set.refs) != len(set.files) || len(set.refs) == 0 {
				t.Fatalf("%s: %s has %d refs for %d files", m.Name, name, len(set.refs), len(set.files))
			}
			for i, r := range set.refs {
				if f := set.files[i]; r.Path() != f.Path || r.Size() != f.Size {
					t.Fatalf("%s: %s[%d] is %s (%d B), the list says %s (%d B)", m.Name, name, i, r.Path(), r.Size(), f.Path, f.Size)
				}
				if own, ok := img.Layer.Ref(r.Path()); !ok || own != r {
					t.Fatalf("%s: %s[%d] (%s) is not the layer's own copy of the file", m.Name, name, i, r.Path())
				}
			}
		}
	}
}
