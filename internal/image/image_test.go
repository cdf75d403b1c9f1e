package image

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/unionfs"
)

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
	if got := m.StrippableBytes(); got != 771*host.MB {
		t.Fatalf("strippable = %d MB, want 771", got/host.MB)
	}
	never := float64(m.StrippableBytes()) / float64(m.TotalBytes())
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
	accessed := full.TotalBytes() - full.StrippableBytes()
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
	wantFiles := 0
	for _, c := range m.Cats {
		wantFiles += c.Files
	}
	if l.FileCount() != wantFiles {
		t.Fatalf("layer files = %d, want %d", l.FileCount(), wantFiles)
	}
	if got := l.SizeUnder("/system"); got != m.SystemBytes() {
		t.Fatalf("/system in layer = %d, want %d", got, m.SystemBytes())
	}
}

func TestBootAndOnDemandPartitionCore(t *testing.T) {
	m := AndroidX86().ForContainer()
	boot := m.BootFiles()
	onDemand := m.OnDemandFiles()
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
	core := m.TotalBytes() - m.StrippableBytes()
	if bootB+odB != core {
		t.Fatalf("boot %d + on-demand %d != core %d", bootB, odB, core)
	}
	if bootB <= 0 || odB <= 0 {
		t.Fatal("expected both boot and on-demand sets to be non-empty")
	}
}

func TestCustomizedBootSmallerThanFull(t *testing.T) {
	full := AndroidX86().ForContainer()
	cust := AndroidX86().Customized()
	if cust.BootBytes() >= full.BootBytes() {
		t.Fatalf("customized boot set %d MB not smaller than full %d MB",
			cust.BootBytes()/host.MB, full.BootBytes()/host.MB)
	}
}

func TestNoStrippableFilesInBootSet(t *testing.T) {
	m := AndroidX86()
	for _, f := range m.BootFiles() {
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
func referenceLists(m Manifest) (boot, onDemand []FileRef) {
	var perCat [][]FileRef
	for _, c := range m.Cats {
		if c.Strippable {
			continue
		}
		n := int(float64(c.Files)*c.BootFrac + 0.5)
		var rest []FileRef
		for i := 0; i < c.Files; i++ {
			ref := FileRef{Path: fmt.Sprintf("%s/%s_%04d%s", c.Dir, c.Name, i, c.Ext), Size: fileSize(c, i)}
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

// TestFileListsBuiltOnce: the lists a manifest hands out are the ones a
// per-call enumeration produces — contents, order and BootBytes — for all
// three images, every call returns the same shared array, and a caller
// that appends to its list cannot write into the next caller's.
func TestFileListsBuiltOnce(t *testing.T) {
	for _, m := range []Manifest{AndroidX86(), AndroidX86().ForContainer(), AndroidX86().Customized()} {
		wantBoot, wantOnDemand := referenceLists(m)
		if got := m.BootFiles(); !reflect.DeepEqual(got, wantBoot) {
			t.Fatalf("%s: BootFiles differs from the per-call enumeration (%d vs %d files)", m.Name, len(got), len(wantBoot))
		}
		if got := m.OnDemandFiles(); !reflect.DeepEqual(got, wantOnDemand) {
			t.Fatalf("%s: OnDemandFiles differs from the per-call enumeration (%d vs %d files)", m.Name, len(got), len(wantOnDemand))
		}
		var sum host.Bytes
		for _, f := range wantBoot {
			sum += f.Size
		}
		if m.BootBytes() != sum {
			t.Fatalf("%s: BootBytes = %d, want %d", m.Name, m.BootBytes(), sum)
		}

		for name, list := range map[string]func() []FileRef{"BootFiles": m.BootFiles, "OnDemandFiles": m.OnDemandFiles} {
			a, b := list(), list()
			if len(a) == 0 || &a[0] != &b[0] {
				t.Fatalf("%s: %s rebuilt its list on a second call", m.Name, name)
			}
			first := append(a, FileRef{Path: "/intruder-1"})
			second := append(b, FileRef{Path: "/intruder-2"})
			if first[len(a)].Path != "/intruder-1" || second[len(b)].Path != "/intruder-2" {
				t.Fatalf("%s: %s: two callers' appends share one array", m.Name, name)
			}
			if c := list(); len(c) != len(a) || !reflect.DeepEqual(c, a) {
				t.Fatalf("%s: %s changed after callers appended to it", m.Name, name)
			}
		}
	}
	// A literal built outside the constructors still enumerates correctly.
	lit := Manifest{Name: "literal", Cats: AndroidX86().Customized().Cats}
	wantBoot, wantOnDemand := referenceLists(lit)
	if !reflect.DeepEqual(lit.BootFiles(), wantBoot) || !reflect.DeepEqual(lit.OnDemandFiles(), wantOnDemand) {
		t.Fatal("a Manifest literal enumerates different files than its constructor-built twin")
	}
}

// TestImageRefsMatchFileLists: the handles an Image hands out are the lists
// its Manifest enumerates, resolved — same file at the same index, by path
// and size, and resolved against the Image's own layer — for all three
// images and for a literal built outside the constructors.
func TestImageRefsMatchFileLists(t *testing.T) {
	lit := Manifest{Name: "literal", Cats: AndroidX86().Customized().Cats}
	for _, m := range []Manifest{AndroidX86(), AndroidX86().ForContainer(), AndroidX86().Customized(), lit} {
		img := m.BuildLayer("img", true)
		for name, set := range map[string]struct {
			refs  []unionfs.Ref
			files []FileRef
		}{"Boot": {img.Boot, m.BootFiles()}, "OnDemand": {img.OnDemand, m.OnDemandFiles()}} {
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
