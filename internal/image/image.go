// Package image models the Android-x86 4.4 (KitKat) system image used as
// the mobile OS in both the VM baseline and Cloud Android Containers, with
// the composition the paper measured (§III-E, §IV-B3):
//
//   - entire OS ≈ 1.1 GB, of which /system is 985 MB (87.4%);
//   - 771 MB (68.4%) is never accessed by offloaded code: 20 built-in apps,
//     197 hardware .so libraries, 4372 kernel modules (.ko), 396 firmware
//     blobs (.bin), plus media and dormant vendor files;
//   - the customized OS for offloading additionally drops the UI/telephony
//     services (which a full boot does touch), keeping ~31.6% of the image.
//
// A Manifest is a recipe: BuildLayer materializes it as an Image — a unionfs
// layer plus resolved handles on what a boot and subsequent offloading
// execution read, which BootFiles/OnDemandFiles enumerate by path. Sizes are
// per category with even per-file split, so the aggregate numbers above are
// exact while individual files stay plausible.
package image

import (
	"fmt"

	"rattrap/internal/host"
	"rattrap/internal/unionfs"
)

// Category is one family of files in the image.
type Category struct {
	Name  string
	Dir   string
	Ext   string
	Files int
	Total host.Bytes
	// Strippable files are never accessed by boot or offloaded code and
	// are removed by OS customization (§IV-B3).
	Strippable bool
	// UIService files are read by a *full* Android boot (system UI,
	// telephony, rendering) but removed by customization, which fakes
	// their interfaces with direct returns instead.
	UIService bool
	// VMOnly files exist only in the VM disk image (kernel, ramdisk,
	// recovery, swap); containers share the host kernel instead.
	VMOnly bool
	// BootFrac is the fraction of the category's files a boot reads.
	// The rest are loaded on demand by offloaded code.
	BootFrac float64
}

// Manifest is an ordered set of categories describing one OS image.
type Manifest struct {
	Name string
	Cats []Category
	// boot and onDemand are the BootFiles/OnDemandFiles enumerations. The
	// constructors below build them once: every boot of the image walks
	// the same few hundred paths, so callers share these read-only.
	boot, onDemand []FileRef
}

// FileRef names one file and its size.
type FileRef struct {
	Path string
	Size host.Bytes
}

// AndroidX86 returns the full Android-x86 4.4 r2 image. The category sizes
// reproduce the paper's measurements exactly: total 1126 MB (≈1.1 GB),
// /system 985 MB (87.4%), never-accessed 771 MB (68.4%).
func AndroidX86() Manifest {
	return withFileLists(Manifest{
		Name: "android-x86-4.4-r2",
		Cats: []Category{
			{Name: "boot", Dir: "/boot", Ext: ".img", Files: 62, Total: 82 * host.MB, VMOnly: true, BootFrac: 0.2},
			{Name: "framework", Dir: "/system/framework", Ext: ".jar", Files: 30, Total: 100 * host.MB, BootFrac: 0.75},
			{Name: "corelib", Dir: "/system/lib", Ext: ".so", Files: 150, Total: 50 * host.MB, BootFrac: 0.7},
			{Name: "coresvc", Dir: "/system/priv-app", Ext: ".apk", Files: 12, Total: 24 * host.MB, BootFrac: 0.9},
			{Name: "uisvc", Dir: "/system/ui", Ext: ".apk", Files: 10, Total: 40 * host.MB, UIService: true, BootFrac: 0.9},
			{Name: "hwlib", Dir: "/system/lib/hw", Ext: ".so", Files: 197, Total: 88 * host.MB, Strippable: true},
			{Name: "modules", Dir: "/system/lib/modules", Ext: ".ko", Files: 4372, Total: 175 * host.MB, Strippable: true},
			{Name: "firmware", Dir: "/system/etc/firmware", Ext: ".bin", Files: 396, Total: 130 * host.MB, Strippable: true},
			{Name: "apps", Dir: "/system/app", Ext: ".apk", Files: 20, Total: 168 * host.MB, Strippable: true},
			{Name: "media", Dir: "/system/media", Ext: ".dat", Files: 240, Total: 145 * host.MB, Strippable: true},
			{Name: "vendor", Dir: "/system/vendor", Ext: ".so", Files: 60, Total: 65 * host.MB, Strippable: true},
			{Name: "data", Dir: "/data", Ext: ".db", Files: 40, Total: 45 * host.MB, BootFrac: 0.3},
			{Name: "binetc", Dir: "/etc", Ext: "", Files: 60, Total: 14 * host.MB, BootFrac: 1.0},
		},
	})
}

// withFileLists fills in m's file enumerations. Capacities are clipped to
// the lengths so a caller appending to a returned list gets a copy instead
// of writing into the shared array.
func withFileLists(m Manifest) Manifest {
	boot, onDemand := workingSet(m.Cats, fileRef)
	m.boot, m.onDemand = boot[:len(boot):len(boot)], onDemand[:len(onDemand):len(onDemand)]
	return m
}

// ForContainer drops the VM-only categories: containers share the host
// kernel and need no boot/recovery partitions. This is the non-optimized
// Cloud Android Container rootfs (1.02 GB in Table I).
func (m Manifest) ForContainer() Manifest {
	out := Manifest{Name: m.Name + "-container"}
	for _, c := range m.Cats {
		if !c.VMOnly {
			out.Cats = append(out.Cats, c)
		}
	}
	return withFileLists(out)
}

// Customized applies the §IV-B3 OS customization: strippable categories
// (hardware drivers, firmware, built-in apps, media) and the UI/telephony
// services are removed; calls into the removed services are faked with
// direct returns by the modified runtime. The result is the shared-layer
// content for optimized Cloud Android Containers.
func (m Manifest) Customized() Manifest {
	out := Manifest{Name: m.Name + "-custom"}
	for _, c := range m.Cats {
		if c.VMOnly || c.Strippable || c.UIService {
			continue
		}
		out.Cats = append(out.Cats, c)
	}
	return withFileLists(out)
}

// Category returns the named category.
func (m Manifest) Category(name string) (Category, bool) {
	for _, c := range m.Cats {
		if c.Name == name {
			return c, true
		}
	}
	return Category{}, false
}

// TotalBytes is the size of the whole image.
func (m Manifest) TotalBytes() host.Bytes {
	var t host.Bytes
	for _, c := range m.Cats {
		t += c.Total
	}
	return t
}

// SystemBytes is the size under /system.
func (m Manifest) SystemBytes() host.Bytes {
	var t host.Bytes
	for _, c := range m.Cats {
		if len(c.Dir) >= 7 && c.Dir[:7] == "/system" {
			t += c.Total
		}
	}
	return t
}

// StrippableBytes is the size of categories never accessed by offloading.
func (m Manifest) StrippableBytes() host.Bytes {
	var t host.Bytes
	for _, c := range m.Cats {
		if c.Strippable {
			t += c.Total
		}
	}
	return t
}

// filePath names the i-th file of a category.
func filePath(c Category, i int) string {
	return fmt.Sprintf("%s/%s_%04d%s", c.Dir, c.Name, i, c.Ext)
}

// fileSize returns the size of the i-th file: an even split with the
// remainder assigned to file 0, so category totals are exact.
func fileSize(c Category, i int) host.Bytes {
	base := c.Total / host.Bytes(c.Files)
	if i == 0 {
		return base + c.Total%host.Bytes(c.Files)
	}
	return base
}

func fileRef(c Category, i int) FileRef {
	return FileRef{Path: filePath(c, i), Size: fileSize(c, i)}
}

// Image is a Manifest materialized as a layer, with the manifest's working
// set resolved against it: Boot[i] is the layer's copy of BootFiles()[i] and
// OnDemand[i] of OnDemandFiles()[i]. Every runtime that boots from the layer
// reads through these handles, so the paths are looked up when the layer is
// built and never again.
type Image struct {
	Layer          *unionfs.Layer
	Boot, OnDemand []unionfs.Ref
}

// BuildLayer materializes the manifest as a unionfs layer.
func (m Manifest) BuildLayer(name string, readOnly bool) *Image {
	l := unionfs.NewLayer(name, readOnly)
	add := func(c Category, i int) unionfs.Ref {
		return l.AddFile(filePath(c, i), fileSize(c, i), nil)
	}
	for _, c := range m.Cats {
		if c.Strippable { // outside the working set; workingSet adds the rest
			for i := 0; i < c.Files; i++ {
				add(c, i)
			}
		}
	}
	boot, onDemand := workingSet(m.Cats, add)
	return &Image{Layer: l, Boot: boot, OnDemand: onDemand}
}

// workingSet calls file once for every file of every non-strippable
// category, in category then index order, and splits the results in two.
// boot is what a boot of the image reads: the first BootFrac of each
// category (UI services included when present, i.e. a full, non-customized
// boot). onDemand is the rest, interleaved round-robin across categories so
// the post-boot scan's load is even. Both are non-nil even when empty: to a
// Manifest nil means "not built".
func workingSet[T any](cats []Category, file func(c Category, i int) T) (boot, onDemand []T) {
	boot, onDemand = []T{}, []T{}
	var perCat [][]T
	for _, c := range cats {
		if c.Strippable {
			continue
		}
		n := int(float64(c.Files)*c.BootFrac + 0.5)
		var rest []T
		for i := 0; i < c.Files; i++ {
			if f := file(c, i); i < n {
				boot = append(boot, f)
			} else {
				rest = append(rest, f)
			}
		}
		if len(rest) > 0 {
			perCat = append(perCat, rest)
		}
	}
	for len(perCat) > 0 {
		kept := perCat[:0]
		for _, rest := range perCat {
			onDemand = append(onDemand, rest[0])
			if rest = rest[1:]; len(rest) > 0 {
				kept = append(kept, rest)
			}
		}
		perCat = kept
	}
	return boot, onDemand
}

// BootFiles enumerates the files a boot of this image reads (see
// workingSet). The list is shared: callers must not modify its elements.
func (m Manifest) BootFiles() []FileRef {
	if m.boot == nil { // a Manifest literal built outside this package
		boot, _ := workingSet(m.Cats, fileRef)
		return boot
	}
	return m.boot
}

// OnDemandFiles enumerates the non-strippable files a boot does not read.
// The post-boot background scan (media scanner, background dexopt, lazy
// class loads) touches them over the first minute of uptime, which is why
// Observation 4 finds exactly the strippable set untouched. The list is
// shared: callers must not modify its elements.
func (m Manifest) OnDemandFiles() []FileRef {
	if m.onDemand == nil { // a Manifest literal built outside this package
		_, onDemand := workingSet(m.Cats, fileRef)
		return onDemand
	}
	return m.onDemand
}

// BootBytes is the total size of BootFiles.
func (m Manifest) BootBytes() host.Bytes {
	var t host.Bytes
	for _, f := range m.BootFiles() {
		t += f.Size
	}
	return t
}
