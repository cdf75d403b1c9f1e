// Package unionfs implements an AUFS-like layered copy-on-write filesystem
// plus tmpfs (in-memory) layers. It is the storage substrate for Cloud
// Android Containers: read-only lower layers carry the shared Android
// /system (the Shared Resource Layer of §IV-C), a small writable upper
// layer holds per-container state, and a shared tmpfs layer carries
// offloading I/O ("Sharing Offloading I/O", Figure 7b).
//
// Reads and writes are timed through the owning host: disk-backed layers
// pay HDD cost (with page caching), tmpfs layers move at memory bandwidth.
// Every file records its last access time, which is how the §III-E
// redundancy profiling (Observation 4: 68.4% of the OS never touched) is
// reproduced.
package unionfs

import (
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// File describes one entry as seen through a mount.
type File struct {
	Path  string
	Size  host.Bytes
	Layer string // name of the layer that provides the visible copy
}

type node struct {
	size       host.Bytes
	data       []byte // optional real content (code blobs, small files)
	accessed   bool
	lastAccess sim.Time
	// page is the residency of the file's blocks in the host page cache. It
	// belongs to this layer's copy of the file, so two containers reading
	// the same shared-layer file share cache and a private copy shares none.
	page host.Page
}

// Ref is a file resolved once: a layer's copy of a path, held by whoever
// reads the same immutable files again and again (a boot's working set of
// the shared image). Mount.ReadRef reads it without looking the path up in
// the ref's own layer. The zero Ref names no file.
type Ref struct {
	l    *Layer
	n    *node
	path string // clean
}

// Path returns the file's canonical path.
func (r Ref) Path() string { return r.path }

// Size returns the file's size.
func (r Ref) Size() host.Bytes { return r.n.size }

// Layer is one stratum of a union mount. A layer may back many mounts at
// once; that sharing is exactly what the Shared Resource Layer exploits.
type Layer struct {
	name     string
	readOnly bool
	inMemory bool
	files    map[string]*node
	wh       map[string]bool // whiteouts, made by Remove; nil until the first
	// lens has bit len(p)%64 set for every path p files has ever held (see
	// lookup).
	lens uint64
}

// NewLayer creates a disk-backed layer. readOnly layers reject writes
// through any mount.
func NewLayer(name string, readOnly bool) *Layer {
	return &Layer{name: name, readOnly: readOnly, files: make(map[string]*node)}
}

// NewTmpfs creates an in-memory (tmpfs) layer. Its content occupies RAM and
// moves at memory bandwidth.
func NewTmpfs(name string) *Layer {
	l := NewLayer(name, false)
	l.inMemory = true
	return l
}

// Name returns the layer's identifier.
func (l *Layer) Name() string { return l.name }

// ReadOnly reports whether the layer rejects writes.
func (l *Layer) ReadOnly() bool { return l.readOnly }

// AddFile places a file directly into the layer (image construction; not a
// timed operation) and returns its Ref. data may be nil when only the size
// matters.
func (l *Layer) AddFile(p string, size host.Bytes, data []byte) Ref {
	if size < 0 {
		panic("unionfs: negative file size")
	}
	p = clean(p)
	n := &node{size: size, data: data}
	l.put(p, n)
	return Ref{l: l, n: n, path: p}
}

// put stores n as the layer's copy of clean path p.
func (l *Layer) put(p string, n *node) {
	l.files[p] = n
	l.lens |= 1 << (len(p) % 64)
}

// lookup returns the layer's copy of clean path p. A layer holds few
// distinct path lengths — a container's delta three files, an image a
// length per category — so for most paths it does not hold, lens says so
// and the path is never hashed. That is every lookup a boot and its
// background scan make in the delta above the shared image.
func (l *Layer) lookup(p string) (*node, bool) {
	if l.lens&(1<<(len(p)%64)) == 0 {
		return nil, false
	}
	n, ok := l.files[p]
	return n, ok
}

// Ref resolves p within the layer itself.
func (l *Layer) Ref(p string) (Ref, bool) {
	p = clean(p)
	n, ok := l.lookup(p)
	return Ref{l: l, n: n, path: p}, ok
}

// Has reports whether the layer itself contains the path.
func (l *Layer) Has(p string) bool {
	_, ok := l.files[clean(p)]
	return ok
}

// FileCount returns the number of files stored in the layer.
func (l *Layer) FileCount() int { return len(l.files) }

// Size returns the total bytes stored in the layer.
func (l *Layer) Size() host.Bytes {
	var total host.Bytes
	for _, n := range l.files {
		total += n.size
	}
	return total
}

// AccessedSize returns total bytes of files that have been read at least
// once, and NeverAccessedSize the complement.
func (l *Layer) AccessedSize() host.Bytes {
	var total host.Bytes
	for _, n := range l.files {
		if n.accessed {
			total += n.size
		}
	}
	return total
}

// NeverAccessedSize returns total bytes of files never read.
func (l *Layer) NeverAccessedSize() host.Bytes { return l.Size() - l.AccessedSize() }

// ResetAccess clears all access marks (a fresh profiling run).
func (l *Layer) ResetAccess() {
	for _, n := range l.files {
		n.accessed = false
		n.lastAccess = 0
	}
}

// SizeUnder returns total bytes of files whose path begins with prefix.
func (l *Layer) SizeUnder(prefix string) host.Bytes {
	prefix = clean(prefix)
	var total host.Bytes
	for p, n := range l.files {
		if strings.HasPrefix(p, prefix) {
			total += n.size
		}
	}
	return total
}

// Paths returns all paths in the layer, sorted (deterministic iteration).
func (l *Layer) Paths() []string {
	out := make([]string, 0, len(l.files))
	for p := range l.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a frozen read-only copy of the layer under a new name:
// the node table and whiteout set are copied (so later writes to l never
// show through the snapshot and reads through the snapshot never mark l's
// nodes accessed), while file content slices are shared — a snapshot costs
// metadata, not data. This is the capture half of template-clone boot: the
// upper layer of a fully booted container is snapshotted once and then
// spliced beneath every clone's fresh upper as an extra lower layer.
func (l *Layer) Snapshot(name string) *Layer {
	s := &Layer{
		name:     name,
		readOnly: true,
		inMemory: l.inMemory,
		files:    make(map[string]*node, len(l.files)),
		wh:       maps.Clone(l.wh),
		lens:     l.lens,
	}
	for p, n := range l.files {
		s.files[p] = &node{size: n.size, data: n.data, accessed: n.accessed, lastAccess: n.lastAccess}
	}
	return s
}

// WarmCacheOn marks every file of the layer resident in h's page cache
// without simulated reads. Rattrap warms the Shared Resource Layer when the
// platform starts, so every container boot after the first reads /system at
// memory speed.
func (l *Layer) WarmCacheOn(h *host.Host) {
	for _, n := range l.files {
		h.WarmPage(&n.page)
	}
}

// DropCacheOn evicts the layer's files from h's page cache. A runtime's
// private layer is never read again once the runtime stops, so without this
// the cache would count one resident file per file per runtime ever booted.
func (l *Layer) DropCacheOn(h *host.Host) {
	for _, n := range l.files {
		h.EvictPage(&n.page)
	}
}

// CachedOn reports whether the layer's own copy of p is resident in h's
// page cache.
func (l *Layer) CachedOn(h *host.Host, p string) bool {
	n, ok := l.files[clean(p)]
	return ok && h.CachedPage(&n.page)
}

// FaultHook is consulted before each write through a mount. A hook may
// sleep p to stall the write (a saturated disk); returning a non-nil
// error fails the write before it lands.
type FaultHook func(p *sim.Proc, path string, size host.Bytes) error

// Mount is a union view: a writable upper layer over read-only lowers.
// Lookups go top-down; writes land in the upper via copy-on-write.
type Mount struct {
	h        *host.Host
	name     string
	layers   []*Layer // [0] = upper, rest lower in priority order
	directIO bool
	fault    FaultHook
}

// SetFault installs a write fault hook (nil removes it). The scenario
// runner wires each platform's offloading-I/O mount to its active fault
// plan.
func (m *Mount) SetFault(h FaultHook) { m.fault = h }

// SetDirectIO makes the mount bypass the host page cache. A hypervisor's
// virtual-disk path (VirtualBox VDI) reads media directly, so two VMs
// never share cached blocks the way containers sharing a layer do.
func (m *Mount) SetDirectIO(v bool) { m.directIO = v }

// NewMount assembles a union mount on h. upper must be writable; it is the
// container's private delta. lowers are searched in order after upper.
func NewMount(h *host.Host, name string, upper *Layer, lowers ...*Layer) (*Mount, error) {
	if upper == nil {
		return nil, fmt.Errorf("unionfs: mount %q: nil upper layer", name)
	}
	if upper.readOnly {
		return nil, fmt.Errorf("unionfs: mount %q: upper layer %q is read-only", name, upper.name)
	}
	layers := append([]*Layer{upper}, lowers...)
	return &Mount{h: h, name: name, layers: layers}, nil
}

// CloneFrom assembles a COW clone of this mount: a fresh writable upper
// over tmpl (a Snapshot of this mount's upper at capture time) followed by
// this mount's existing lower stack. Clones share every byte below their
// upper — the template and the shared lowers are charged once host-wide —
// and writes land only in the clone's own upper. Whiteouts frozen into
// tmpl keep hiding lower-layer files for the clone, exactly as they did
// for the source mount at capture time.
func (m *Mount) CloneFrom(name string, upper, tmpl *Layer) (*Mount, error) {
	if tmpl == nil {
		return nil, fmt.Errorf("unionfs: clone %q: nil template layer", name)
	}
	lowers := append([]*Layer{tmpl}, m.layers[1:]...)
	nm, err := NewMount(m.h, name, upper, lowers...)
	if err != nil {
		return nil, err
	}
	nm.directIO = m.directIO
	return nm, nil
}

// Name returns the mount identifier.
func (m *Mount) Name() string { return m.name }

// Host returns the machine whose disk, memory and page cache time the
// mount's I/O.
func (m *Mount) Host() *host.Host { return m.h }

// Upper returns the writable top layer.
func (m *Mount) Upper() *Layer { return m.layers[0] }

// Layers returns the stack, upper first.
func (m *Mount) Layers() []*Layer { return m.layers }

// clean returns the canonical rooted form of p, path.Clean("/"+p). Nearly
// every path that reaches a mount is canonical already (image manifests and
// the runtime build them that way), so that case is recognized without
// allocating.
func clean(p string) string {
	if isClean(p) {
		return p
	}
	return path.Clean("/" + p)
}

// isClean reports whether p is rooted and has no empty, "." or ".." element
// and no trailing slash, i.e. whether path.Clean("/"+p) == p.
func isClean(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	if p == "/" {
		return true
	}
	start := 1
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		switch p[start:i] {
		case "", ".", "..":
			return false
		}
		start = i + 1
	}
	return true
}

// hides reports whether l holds a whiteout for clean path p. Nearly every
// layer holds none at all, which is answered without a map call.
func (l *Layer) hides(p string) bool { return l.wh != nil && l.wh[p] }

// resolve finds the visible copy of p, which must be clean, honoring
// whiteouts in upper layers.
func (m *Mount) resolve(p string) (*Layer, *node, bool) {
	for _, l := range m.layers {
		if l.hides(p) {
			return nil, nil, false
		}
		if n, ok := l.lookup(p); ok {
			return l, n, true
		}
	}
	return nil, nil, false
}

// Stat returns metadata for p through the union view.
func (m *Mount) Stat(p string) (File, bool) {
	p = clean(p)
	l, n, ok := m.resolve(p)
	if !ok {
		return File{}, false
	}
	return File{Path: p, Size: n.size, Layer: l.name}, true
}

// page returns the page-cache residency of n's blocks as this mount reaches
// them: nil, the cache bypass, under direct I/O.
func (m *Mount) page(n *node) *host.Page {
	if m.directIO {
		return nil
	}
	return &n.page
}

// Read reads the whole file at p, blocking proc for the I/O time.
// efficiency models the runtime's I/O virtualization cost (VMs ≪ 1,
// containers ≈ 1). It returns the file's size and content (nil if the
// image only recorded a size).
func (m *Mount) Read(proc *sim.Proc, p string, efficiency float64) (host.Bytes, []byte, error) {
	p = clean(p)
	l, n, ok := m.resolve(p)
	if !ok {
		return 0, nil, fmt.Errorf("unionfs: %s: %s: no such file", m.name, p)
	}
	return m.read(proc, l, n, efficiency)
}

// ReadRef is Read(r.Path()) for a file resolved beforehand. Only the layers
// above the ref's own are searched — a container's fresh delta, a clone's
// template snapshot — and when none of them holds the path or a whiteout
// for it, the ref's copy is the visible one and is read without a lookup.
// Everything else takes Read: a copy-up or whiteout above, a ref into a
// writable layer (a Write may have replaced its node since) and a ref whose
// layer this mount does not stack.
func (m *Mount) ReadRef(proc *sim.Proc, r Ref, efficiency float64) (host.Bytes, []byte, error) {
	if r.l.readOnly {
		for _, l := range m.layers {
			if l.hides(r.path) {
				break
			}
			if l == r.l {
				return m.read(proc, l, r.n, efficiency)
			}
			if _, copied := l.lookup(r.path); copied {
				break
			}
		}
	}
	return m.Read(proc, r.path, efficiency)
}

// read is the tail Read and ReadRef share: n is l's copy of the file and the
// one visible through m.
func (m *Mount) read(proc *sim.Proc, l *Layer, n *node, efficiency float64) (host.Bytes, []byte, error) {
	n.accessed = true
	n.lastAccess = proc.E.Now()
	if l.inMemory {
		m.h.MemCopy(proc, n.size)
	} else {
		m.h.DiskReadPage(proc, m.page(n), n.size, true, efficiency)
	}
	return n.size, n.data, nil
}

// Write creates or replaces p with size bytes (and optional content),
// blocking proc for the I/O time. If the visible copy lives in a lower
// layer, the write copies up into the upper layer first (COW).
func (m *Mount) Write(proc *sim.Proc, p string, size host.Bytes, data []byte, efficiency float64) error {
	p = clean(p)
	if m.fault != nil {
		if err := m.fault(proc, p, size); err != nil {
			return fmt.Errorf("unionfs: %s: writing %s: %w", m.name, p, err)
		}
	}
	upper := m.layers[0]
	if l, n, ok := m.resolve(p); ok && l != upper {
		// Copy-up: read the lower copy, then write the new version.
		if l.inMemory {
			m.h.MemCopy(proc, n.size)
		} else {
			m.h.DiskReadPage(proc, m.page(n), n.size, true, efficiency)
		}
	}
	nn := &node{size: size, data: data, accessed: true}
	if upper.inMemory {
		m.h.MemCopy(proc, size)
	} else {
		m.h.DiskWrite(proc, size, true, efficiency)
		m.h.WarmPage(m.page(nn))
	}
	delete(upper.wh, p)
	nn.lastAccess = proc.E.Now() // after the I/O above
	if old := upper.files[p]; old != nil {
		m.h.EvictPage(&old.page) // the replaced version's pages are freed
	}
	upper.put(p, nn)
	return nil
}

// Remove deletes p from the union view. If a lower layer still holds the
// file, a whiteout in the upper layer hides it ("burn after reading" for
// offloading I/O uses this).
func (m *Mount) Remove(p string) error {
	p = clean(p)
	upper := m.layers[0]
	_, _, visible := m.resolve(p)
	if !visible {
		return fmt.Errorf("unionfs: %s: %s: no such file", m.name, p)
	}
	if n := upper.files[p]; n != nil {
		m.h.EvictPage(&n.page) // a deleted file's pages are freed
	}
	delete(upper.files, p)
	// Still visible through a lower layer? Whiteout.
	for _, l := range m.layers[1:] {
		if _, ok := l.files[p]; ok {
			if upper.wh == nil {
				upper.wh = make(map[string]bool)
			}
			upper.wh[p] = true
			break
		}
	}
	return nil
}

// VisibleSize returns the total size of the union view.
func (m *Mount) VisibleSize() host.Bytes {
	seen := make(map[string]bool)
	var total host.Bytes
	for _, l := range m.layers {
		for p, n := range l.files {
			if seen[p] {
				continue
			}
			seen[p] = true
			if !m.whiteoutAbove(l, p) {
				total += n.size
			}
		}
	}
	return total
}

func (m *Mount) whiteoutAbove(target *Layer, p string) bool {
	for _, l := range m.layers {
		if l == target {
			return false
		}
		if l.wh[p] {
			return true
		}
		if _, ok := l.files[p]; ok {
			return false // shadowed, but not whited out; still visible via upper copy
		}
	}
	return false
}

// List returns the union view's files, sorted by path.
func (m *Mount) List() []File {
	seen := make(map[string]File)
	hidden := make(map[string]bool)
	for _, l := range m.layers {
		for p := range l.wh {
			if _, taken := seen[p]; !taken {
				hidden[p] = true
			}
		}
		for p, n := range l.files {
			if hidden[p] {
				continue
			}
			if _, taken := seen[p]; !taken {
				seen[p] = File{Path: p, Size: n.size, Layer: l.name}
			}
		}
	}
	out := make([]File, 0, len(seen))
	for _, f := range seen {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
