package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rattrap/internal/host"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
)

// cacheEntry is one row of the warehouse's cache table (Figure 8): the
// code's AID, its reference (app name), its chunk manifest, and the
// containers that already loaded it (CIDs) so the Dispatcher can route
// same-app requests to a runtime that skips code loading.
type cacheEntry struct {
	AID  string
	App  string
	Size host.Bytes
	CIDs []string // unordered; a container appears once
	Hits int

	// Hashes is the entry's chunk manifest: the entry holds one reference to
	// each distinct block it names in the shared chunk store.
	Hashes []uint64

	// lastBound/seq order entries for least-recently-bound eviction: the
	// virtual time a container last loaded the code, with the insertion
	// sequence breaking same-instant ties deterministically; heapIdx is the
	// entry's slot in the eviction heap.
	lastBound sim.Time
	seq       int
	heapIdx   int
}

// evictOrder is the cache table as a min-heap on (lastBound, seq), each slot
// carrying its entry's key: the root is the next eviction victim, the one a
// scan of the table would pick (seq is unique, so ties resolve the same).
// Entries record their index, so a bind or a drop fixes it in O(log n).
type evictOrder []evictSlot

type evictSlot struct {
	lastBound sim.Time
	seq       int
	e         *cacheEntry
}

func (a evictSlot) before(b evictSlot) bool {
	return a.lastBound < b.lastBound || a.lastBound == b.lastBound && a.seq < b.seq
}

func (e *cacheEntry) slot() evictSlot { return evictSlot{e.lastBound, e.seq, e} }

func (h evictOrder) set(i int, s evictSlot) { h[i], s.e.heapIdx = s, i }

func (h *evictOrder) push(e *cacheEntry) {
	*h = append(*h, evictSlot{})
	h.fix(len(*h)-1, e.slot())
}

// remove takes out the entry at i; the last entry fills the hole.
func (h *evictOrder) remove(i int) {
	n := len(*h) - 1
	last := (*h)[n]
	(*h)[n] = evictSlot{}
	*h = (*h)[:n]
	if i < n {
		h.fix(i, last)
	}
}

// fix places s, the new key of slot i, sifting it up or down.
func (h evictOrder) fix(i int, s evictSlot) {
	for i > 0 && s.before(h[(i-1)/2]) {
		h.set(i, h[(i-1)/2])
		i = (i - 1) / 2
	}
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(s) {
			break
		}
		h.set(i, h[c])
		i = c
	}
	h.set(i, s)
}

// chunkInfo is one content-addressed block of the chunk store: its size,
// how many cache entries reference it, and its file, named once when the
// block is written.
type chunkInfo struct {
	size host.Bytes
	refs int
	path string
}

// Warehouse is the App Warehouse (§IV-D): the mobile code cache that
// eliminates duplicate code transfer. Code arrives once — with an app's
// first offloading request, "once and for all" — and later requests
// reference it by AID instead of re-uploading. Every entry is a manifest
// of content-addressed blocks, so app families sharing libraries store
// (and, pushing deltas, transfer) each common block exactly once across
// AIDs.
type Warehouse struct {
	e       *sim.Engine
	store   *unionfs.Mount
	entries map[string]*cacheEntry
	pending map[string]*sim.Signal // in-flight first pushes, by AID
	chunks  map[uint64]chunkInfo   // content-addressed block store
	staging map[uint64]int         // in-flight pushes staging each block, by hash
	misses  int

	// stored is the running StoredBytes total, adjusted wherever a chunk
	// enters or leaves the store. byCID is the reverse of
	// the entries' CID lists — container → AIDs it loaded — so a stopping
	// container unbinds in time proportional to what it loaded, not to the
	// size of the cache table.
	stored host.Bytes
	byCID  map[string][]string
	order  evictOrder

	// capacity bounds StoredBytes; 0 means unbounded (the pre-eviction
	// behaviour). evictions counts entries dropped to stay under it.
	capacity  host.Bytes
	evictions int
	seq       int

	// bytesGauge and evictCount mirror stored and evictions into an
	// observability registry (nil when none is installed).
	bytesGauge *obs.Gauge
	evictCount *obs.Counter
}

// NewWarehouse creates a warehouse staging blobs on store (the shared
// in-memory offloading layer in Rattrap). capacity bounds the staged
// volume (0 = unbounded); e supplies the clock that orders entries for
// least-recently-bound eviction.
func NewWarehouse(e *sim.Engine, store *unionfs.Mount, capacity host.Bytes) *Warehouse {
	return &Warehouse{
		e:        e,
		store:    store,
		entries:  make(map[string]*cacheEntry),
		pending:  make(map[string]*sim.Signal),
		chunks:   make(map[uint64]chunkInfo),
		staging:  make(map[uint64]int),
		byCID:    make(map[string][]string),
		capacity: capacity,
	}
}

// setObs mirrors StoredBytes into reg's warehouse.bytes gauge and counts
// capacity evictions in its warehouse.evictions counter, both named under
// prefix; a nil reg stops both.
func (w *Warehouse) setObs(reg *obs.Registry, prefix string) {
	w.bytesGauge = reg.Gauge(prefix + "warehouse.bytes")
	w.evictCount = reg.Counter(prefix + "warehouse.evictions")
	w.bytesGauge.Set(int64(w.stored))
}

// Inflight reports whether another session is already transferring this
// code, returning the signal that fires when the push lands. Concurrent
// first requests from several devices would otherwise all push the same
// code; the paper's "once and for all" admits exactly one transfer.
func (w *Warehouse) Inflight(aid string) (*sim.Signal, bool) {
	sig, ok := w.pending[aid]
	return sig, ok
}

// Claim marks this session as the one pushing aid; later sessions see it
// via Inflight and wait instead of re-uploading.
func (w *Warehouse) Claim(e *sim.Engine, aid string) {
	if _, ok := w.pending[aid]; !ok {
		w.pending[aid] = sim.NewSignal(e)
	}
}

// settle fires and clears a pending claim (once the push landed, or on
// abort).
func (w *Warehouse) settle(aid string) {
	if sig, ok := w.pending[aid]; ok {
		delete(w.pending, aid)
		sig.Fire()
	}
}

// Has reports whether the AID is cached, recording a hit or miss.
func (w *Warehouse) Has(aid string) bool {
	if e, ok := w.entries[aid]; ok {
		e.Hits++
		return true
	}
	w.misses++
	return false
}

// Lookup returns the cache entry without touching hit statistics.
func (w *Warehouse) Lookup(aid string) (*cacheEntry, bool) {
	e, ok := w.entries[aid]
	return e, ok
}

// newEntry records a staged manifest in the cache table.
func (w *Warehouse) newEntry(aid, app string, size host.Bytes, hashes []uint64) {
	w.seq++
	e := &cacheEntry{
		AID: aid, App: app, Size: size,
		Hashes:    hashes,
		lastBound: w.e.Now(),
		seq:       w.seq,
	}
	w.entries[aid] = e
	w.order.push(e)
	w.bytesGauge.Set(int64(w.stored))
}

// chunkDir holds the chunk store's blocks, one file per hash.
const chunkDir = "/warehouse/chunks/"

// chunkPath names block h's file: chunkDir and h in 16 hex digits, encoded
// in place so the string is the only allocation.
func chunkPath(h uint64) string {
	var b [len(chunkDir) + 16]byte
	return string(appendChunkPath(b[:0], h))
}

// appendChunkPath appends chunkPath(h) to b.
func appendChunkPath(b []byte, h uint64) []byte {
	b = append(b, chunkDir...)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[h>>shift&15])
	}
	return b
}

// chunkStaging is one push's parallel block writes: the signal its proc
// waits on, the writes outstanding and the first that failed, and the
// writes themselves, whose procs it owns.
type chunkStaging struct {
	done      sim.Signal
	remaining int
	err       error
	w         *Warehouse
	writes    []chunkWrite
}

// chunkWrite is one block a staging writes, on its own proc, to its path.
type chunkWrite struct {
	sim.Proc
	st   *chunkStaging
	hash uint64
	size host.Bytes
	path string
}

func (c *chunkWrite) Run(p *sim.Proc) {
	st := c.st
	if err := st.w.writeChunk(p, c.hash, c.size, c.path); err != nil && st.err == nil {
		st.err = err
	}
	if st.remaining--; st.remaining == 0 {
		st.done.Fire()
	}
}

// writeChunk writes block h, n bytes, to its file at path, blocking p.
func (w *Warehouse) writeChunk(p *sim.Proc, h uint64, n host.Bytes, path string) error {
	if err := w.store.Write(p, path, n, nil, 1.0); err != nil {
		return fmt.Errorf("core: warehouse chunk %016x: %w", h, err)
	}
	return nil
}

// load charges a runtime's read of staged code, size bytes, at the
// runtime's I/O efficiency eff, blocking p. The blocks sit on the store's
// layer, so that layer charges the read of the blob reassembled from them.
func (w *Warehouse) load(p *sim.Proc, size host.Bytes, eff float64) {
	w.store.ReadUpper(p, size, eff)
}

// MissingChunks returns, in offer order, the offered hashes the chunk
// store does not hold yet (each reported once).
func (w *Warehouse) MissingChunks(hashes []uint64) []uint64 {
	return w.appendMissing(nil, hashes)
}

// appendMissing appends MissingChunks(hashes) to dst.
func (w *Warehouse) appendMissing(dst, hashes []uint64) []uint64 {
	seen := make(map[uint64]bool, len(hashes))
	for _, h := range hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		if _, ok := w.chunks[h]; !ok {
			dst = append(dst, h)
		}
	}
	return dst
}

// land stages a whole blob under aid: the blocks of its manifest hashes
// the store lacks are written (MissingChunks, then PutChunked), the rest
// referenced. It is how a full push and an imported entry arrive. Its
// caller holds every block, so a block counted as held that leaves the
// store during the writes is written in a further round instead of
// failing the landing. It returns the bytes written.
func (w *Warehouse) land(p *sim.Proc, aid, app string, size host.Bytes, hashes []uint64) (host.Bytes, error) {
	var written host.Bytes
	for {
		var buf [4]uint64
		missing := w.appendMissing(buf[:0], hashes)
		err := w.PutChunked(p, aid, app, size, hashes, missing)
		written += offload.DeltaBytes(offload.ChunkOffer{Size: size, Hashes: hashes}, missing)
		if !errors.Is(err, offload.ErrCodeNeeded) {
			return written, err
		}
	}
}

// PutChunked stages a push: the chunks in missing are written into the
// content-addressed store — a single block on p itself, several in
// parallel (each is an independent block; staging them concurrently is
// what makes a wide delta land in one chunk-write's time) — every offered
// hash gains a reference, and the entry is recorded. size/hashes describe
// the whole blob; missing must be a subset of hashes (fresh hashes from
// MissingChunks). The whole offer is validated before anything is staged,
// and a push whose staging fails removes its missing blocks that no entry
// holds and no other in-flight push is staging, so a failed push leaves no
// orphaned blocks in the store either; so does one that finds, once its
// blocks are written, that the same code landed meanwhile. A block the
// offer counted as held that has left the store since is refused with an
// error wrapping offload.ErrCodeNeeded: the pusher negotiates again.
func (w *Warehouse) PutChunked(p *sim.Proc, aid, app string, size host.Bytes, hashes, missing []uint64) error {
	if _, ok := w.entries[aid]; ok {
		return nil // concurrent push of the same code: keep the first
	}
	if len(hashes) == 0 || len(hashes) != offload.ChunkCount(size) {
		return fmt.Errorf("core: warehouse put %s: manifest of %d chunks does not describe a %d-byte blob",
			aid, len(hashes), size)
	}
	span := make(map[uint64]host.Bytes, len(hashes))
	for i, h := range hashes {
		sz := offload.ChunkSpan(size, i)
		if prev, ok := span[h]; ok {
			// A hash repeated within the manifest must always name the
			// same-size block; disagreement means a hash collision.
			if prev != sz {
				return fmt.Errorf("core: warehouse put %s: chunk %016x spans both %d and %d bytes (hash collision)",
					aid, h, prev, sz)
			}
			continue
		}
		if c, ok := w.chunks[h]; ok && c.size != sz {
			return fmt.Errorf("core: warehouse put %s: chunk %016x is %d bytes but store holds %d (hash collision)",
				aid, h, sz, c.size)
		}
		span[h] = sz
	}
	for _, h := range missing {
		if _, ok := span[h]; !ok {
			return fmt.Errorf("core: warehouse put %s: missing chunk %016x not in offer", aid, h)
		}
	}
	// path names the one missing block's file; st holds several's.
	var path string
	var st *chunkStaging
	if len(missing) > 0 {
		for _, h := range missing {
			w.staging[h]++
		}
		var err error
		if len(missing) == 1 {
			path = chunkPath(missing[0])
			err = w.writeChunk(p, missing[0], span[missing[0]], path)
		} else {
			st = &chunkStaging{remaining: len(missing), w: w, writes: make([]chunkWrite, len(missing))}
			st.done.Init(p.E)
			for i, h := range missing {
				c := &st.writes[i]
				c.st, c.hash, c.size, c.path = st, h, span[h], chunkPath(h)
				p.E.Start(&c.Proc, "chunk-stage", c)
			}
			p.Wait(&st.done)
			err = st.err
		}
		for _, h := range missing {
			if w.staging[h]--; w.staging[h] == 0 {
				delete(w.staging, h)
			}
		}
		if err != nil {
			w.unstage(missing)
			return err
		}
		if _, ok := w.entries[aid]; ok {
			w.unstage(missing) // the same code landed during the writes: keep the first
			return nil
		}
	}
	for _, h := range hashes {
		if _, held := w.chunks[h]; !held && !slices.Contains(missing, h) {
			w.unstage(missing)
			return fmt.Errorf("core: warehouse put %s: chunk %016x left the store after it was offered: %w",
				aid, h, offload.ErrCodeNeeded)
		}
	}
	seen := make(map[uint64]bool, len(hashes))
	for _, h := range hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		if c, ok := w.chunks[h]; ok {
			c.refs++
			w.chunks[h] = c
			continue
		}
		if st != nil {
			path = st.writes[slices.Index(missing, h)].path
		}
		w.chunks[h] = chunkInfo{size: span[h], refs: 1, path: path}
		w.stored += span[h]
	}
	w.newEntry(aid, app, size, hashes)
	return nil
}

// unstage removes the blocks of missing that a put wrote and did not record
// and that no entry holds and no other in-flight push is staging.
func (w *Warehouse) unstage(missing []uint64) {
	for _, h := range missing {
		if _, held := w.chunks[h]; !held && w.staging[h] == 0 {
			_ = w.store.Remove(chunkPath(h))
		}
	}
}

// BindCID records that a container loaded the code (the AID→CID mapping
// the Dispatcher uses for affinity) and refreshes the entry's
// least-recently-bound stamp.
func (w *Warehouse) BindCID(aid, cid string) {
	if e, ok := w.entries[aid]; ok {
		e.lastBound = w.e.Now()
		w.order.fix(e.heapIdx, e.slot())
		if !slices.Contains(e.CIDs, cid) {
			e.CIDs = append(e.CIDs, cid)
			w.byCID[cid] = append(w.byCID[cid], aid)
		}
	}
}

// dropString removes v from the unordered list s.
func dropString(s []string, v string) []string {
	if i := slices.Index(s, v); i >= 0 {
		s[i] = s[len(s)-1]
		s = s[:len(s)-1]
	}
	return s
}

// UnbindCID removes a stopped container from all entries.
func (w *Warehouse) UnbindCID(cid string) {
	for _, aid := range w.byCID[cid] {
		e := w.entries[aid]
		e.CIDs = dropString(e.CIDs, cid)
	}
	delete(w.byCID, cid)
}

// dropEntry removes an entry and releases its chunk references; blocks
// with no remaining referents leave the store with it.
func (w *Warehouse) dropEntry(e *cacheEntry) {
	delete(w.entries, e.AID)
	w.order.remove(e.heapIdx)
	for _, cid := range e.CIDs {
		if aids := dropString(w.byCID[cid], e.AID); len(aids) > 0 {
			w.byCID[cid] = aids
		} else {
			delete(w.byCID, cid)
		}
	}
	seen := make(map[uint64]bool, len(e.Hashes))
	for _, h := range e.Hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		c, ok := w.chunks[h]
		if !ok {
			continue
		}
		if c.refs--; c.refs > 0 {
			w.chunks[h] = c
			continue
		}
		delete(w.chunks, h)
		w.stored -= c.size
		if w.staging[h] == 0 { // a push staging it again keeps the file
			_ = w.store.Remove(c.path)
		}
	}
	w.bytesGauge.Set(int64(w.stored))
}

// EnforceCapacity evicts least-recently-bound entries until StoredBytes
// fits the configured capacity again, returning how many entries were
// dropped. With no capacity configured (0) it never evicts; a single
// oversize entry is kept — the warehouse always admits the blob that was
// just pushed.
func (w *Warehouse) EnforceCapacity() int {
	if w.capacity <= 0 {
		return 0
	}
	dropped := 0
	for w.StoredBytes() > w.capacity && len(w.entries) > 1 {
		w.dropEntry(w.order[0].e)
		dropped++
	}
	w.evictions += dropped
	w.evictCount.Add(int64(dropped))
	return dropped
}

// Stats summarizes cache behaviour.
func (w *Warehouse) Stats() (entries, hits, misses int) {
	for _, e := range w.entries {
		hits += e.Hits
	}
	return len(w.entries), hits, w.misses
}

// StoredBytes is the total staged code volume: the deduplicated chunk
// store, where a block shared by many AIDs is counted once.
func (w *Warehouse) StoredBytes() host.Bytes { return w.stored }

// ChunkCount reports how many content-addressed blocks the store holds.
func (w *Warehouse) ChunkCount() int { return len(w.chunks) }

// Audit recounts from the cache table what the warehouse keeps as running
// books — each block's reference count (the live manifests naming it),
// StoredBytes (the chunk store), the reverse CID index and the installed
// instruments — and reports the first disagreement, a block no manifest
// names, or a named block not stored; and it checks the chunk table against
// the store's files: every block has its file, at the path chunkPath names,
// and every file under chunkDir is a block of the table or one a push is
// staging.
func (w *Warehouse) Audit() error {
	// refs[h].n counts the manifests naming h; last is the entry that
	// counted it last, so a manifest naming a block twice counts it once.
	type tally struct{ n, last int }
	refs := make(map[uint64]tally, len(w.chunks))
	var stored host.Bytes
	bindings, entry := 0, 0
	for _, e := range w.entries {
		for _, cid := range e.CIDs {
			if !slices.Contains(w.byCID[cid], e.AID) {
				return fmt.Errorf("core: warehouse audit: %s bound to %s is missing from the reverse index", e.AID, cid)
			}
		}
		bindings += len(e.CIDs)
		entry++
		for _, h := range e.Hashes {
			if t := refs[h]; t.last != entry {
				refs[h] = tally{t.n + 1, entry}
			}
		}
	}
	for h, t := range refs {
		if c, ok := w.chunks[h]; !ok {
			return fmt.Errorf("core: warehouse audit: chunk %016x named by %d manifests is not stored", h, t.n)
		} else if c.refs != t.n {
			return fmt.Errorf("core: warehouse audit: chunk %016x counts %d references, %d manifests name it", h, c.refs, t.n)
		}
	}
	for h, c := range w.chunks {
		if refs[h].n == 0 {
			return fmt.Errorf("core: warehouse audit: chunk %016x (%d references) is named by no manifest", h, c.refs)
		}
		stored += c.size
	}
	if stored != w.stored {
		return fmt.Errorf("core: warehouse audit: StoredBytes %d, recounted %d", w.stored, stored)
	}
	var path [len(chunkDir) + 16]byte
	for h, c := range w.chunks {
		if c.path != string(appendChunkPath(path[:0], h)) {
			return fmt.Errorf("core: warehouse audit: chunk %016x records its file as %q", h, c.path)
		}
		if _, ok := w.store.Stat(c.path); !ok {
			return fmt.Errorf("core: warehouse audit: chunk %016x has no file in the store", h)
		}
	}
	// Every write through the store lands in its upper layer. The stray
	// reported is the least, so the report does not depend on map order.
	stray := ""
	w.store.Upper().Walk(func(p string) {
		name, ok := strings.CutPrefix(p, chunkDir)
		if !ok {
			return
		}
		h, err := strconv.ParseUint(name, 16, 64)
		if _, held := w.chunks[h]; (err != nil || !held && w.staging[h] == 0) && (stray == "" || p < stray) {
			stray = p
		}
	})
	if stray != "" {
		return fmt.Errorf("core: warehouse audit: the store holds %s, which is neither a chunk of the table nor being staged", stray)
	}
	for cid, aids := range w.byCID {
		if len(aids) == 0 {
			return fmt.Errorf("core: warehouse audit: empty reverse-index set left for %s", cid)
		}
		bindings -= len(aids)
	}
	if bindings != 0 {
		return fmt.Errorf("core: warehouse audit: reverse index holds %d bindings the entries do not", -bindings)
	}
	if w.bytesGauge != nil && w.bytesGauge.Value() != int64(w.stored) {
		return fmt.Errorf("core: warehouse audit: warehouse.bytes reads %d, StoredBytes %d", w.bytesGauge.Value(), w.stored)
	}
	if w.evictCount != nil && w.evictCount.Value() != int64(w.evictions) {
		return fmt.Errorf("core: warehouse audit: warehouse.evictions reads %d, the warehouse counted %d", w.evictCount.Value(), w.evictions)
	}
	return nil
}
