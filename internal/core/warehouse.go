package core

import (
	"fmt"
	"slices"
	"sort"

	"rattrap/internal/android"
	"rattrap/internal/host"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
)

// cacheEntry is one row of the warehouse's cache table (Figure 8): the
// code's AID, its reference (app name), where the blob is staged, and the
// containers that already loaded it (CIDs) so the Dispatcher can route
// same-app requests to a runtime that skips code loading.
type cacheEntry struct {
	AID  string
	App  string
	Size host.Bytes
	Path string
	CIDs []string // unordered; a container appears once
	Hits int

	// Hashes is the entry's chunk manifest when it arrived via a delta
	// push; such entries own references into the shared chunk store
	// instead of a private blob (chunked=true).
	Hashes  []uint64
	chunked bool

	// lastBound/seq order entries for least-recently-bound eviction: the
	// virtual time a container last loaded the code, with the insertion
	// sequence breaking same-instant ties deterministically.
	lastBound sim.Time
	seq       int
}

// chunkInfo is one content-addressed block of the chunk store: its size
// and how many cache entries reference it.
type chunkInfo struct {
	size host.Bytes
	refs int
}

// Warehouse is the App Warehouse (§IV-D): the mobile code cache that
// eliminates duplicate code transfer. Code arrives once — with an app's
// first offloading request, "once and for all" — and later requests
// reference it by AID instead of re-uploading. Chunked entries go
// further: their blocks are content-addressed, so app families sharing
// libraries store (and transfer) each common block exactly once across
// AIDs.
type Warehouse struct {
	e       *sim.Engine
	store   *unionfs.Mount
	entries map[string]*cacheEntry
	pending map[string]*sim.Signal // in-flight first pushes, by AID
	chunks  map[uint64]*chunkInfo  // content-addressed block store
	misses  int

	// stored is the running StoredBytes total, adjusted wherever a plain
	// blob or a chunk enters or leaves the store. byCID is the reverse of
	// the entries' CID lists — container → AIDs it loaded — so a stopping
	// container unbinds in time proportional to what it loaded, not to the
	// size of the cache table.
	stored host.Bytes
	byCID  map[string][]string

	// capacity bounds StoredBytes; 0 means unbounded (the pre-eviction
	// behaviour). evictions counts entries dropped to stay under it.
	capacity  host.Bytes
	evictions int
	seq       int
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
		chunks:   make(map[uint64]*chunkInfo),
		byCID:    make(map[string][]string),
		capacity: capacity,
	}
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

// settle fires and clears a pending claim (after Put, or on abort).
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

// newEntry records a staged blob in the cache table.
func (w *Warehouse) newEntry(aid, app string, size host.Bytes, path string, hashes []uint64, chunked bool) {
	w.seq++
	w.entries[aid] = &cacheEntry{
		AID: aid, App: app, Size: size, Path: path,
		Hashes:    hashes,
		chunked:   chunked,
		lastBound: w.e.Now(),
		seq:       w.seq,
	}
	if !chunked {
		w.stored += size
	}
}

// Put stages newly received code as one plain blob, blocking p for the
// store write.
func (w *Warehouse) Put(p *sim.Proc, aid, app string, size host.Bytes) error {
	if _, ok := w.entries[aid]; ok {
		return nil // concurrent push of the same code: keep the first
	}
	path := "/warehouse/" + aid + ".apk"
	if err := w.store.Write(p, path, size, nil, 1.0); err != nil {
		return fmt.Errorf("core: warehouse put %s: %w", aid, err)
	}
	w.newEntry(aid, app, size, path, nil, false)
	return nil
}

func chunkPath(h uint64) string { return fmt.Sprintf("/warehouse/chunks/%016x", h) }

// MissingChunks returns, in offer order, the offered hashes the chunk
// store does not hold yet (each reported once).
func (w *Warehouse) MissingChunks(hashes []uint64) []uint64 {
	var missing []uint64
	seen := make(map[uint64]bool, len(hashes))
	for _, h := range hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		if _, ok := w.chunks[h]; !ok {
			missing = append(missing, h)
		}
	}
	return missing
}

// PutChunked stages a delta push: the chunks in missing are written into
// the content-addressed store in parallel (each is an independent block;
// staging them concurrently is what makes a wide delta land in one
// chunk-write's time), every offered hash gains a reference, and the
// entry is recorded as chunked. size/hashes describe the whole blob;
// missing must be a subset of hashes (fresh hashes from MissingChunks).
// The whole offer is validated before anything is staged, so a rejected
// push leaves no orphaned blocks in the store.
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
	var firstErr error
	if len(missing) > 0 {
		done := sim.NewSignal(p.E)
		remaining := len(missing)
		for _, h := range missing {
			h := h
			sz := span[h]
			p.E.Spawn("chunk-stage-"+aid, func(cp *sim.Proc) {
				if err := w.store.Write(cp, chunkPath(h), sz, nil, 1.0); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("core: warehouse chunk %016x: %w", h, err)
				}
				remaining--
				if remaining == 0 {
					done.Fire()
				}
			})
		}
		p.Wait(done)
	}
	if firstErr != nil {
		return firstErr
	}
	seen := make(map[uint64]bool, len(hashes))
	for _, h := range hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		if c, ok := w.chunks[h]; ok {
			c.refs++
		} else {
			w.chunks[h] = &chunkInfo{size: span[h], refs: 1}
			w.stored += span[h]
		}
	}
	w.newEntry(aid, app, size, chunkPath(hashes[0]), hashes, true)
	return nil
}

// BindCID records that a container loaded the code (the AID→CID mapping
// the Dispatcher uses for affinity) and refreshes the entry's
// least-recently-bound stamp.
func (w *Warehouse) BindCID(aid, cid string) {
	if e, ok := w.entries[aid]; ok {
		e.lastBound = w.e.Now()
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

// CIDsFor returns containers holding the code, sorted for determinism.
func (w *Warehouse) CIDsFor(aid string) []string {
	e, ok := w.entries[aid]
	if !ok {
		return nil
	}
	out := slices.Clone(e.CIDs)
	sort.Strings(out)
	return out
}

// dropEntry removes an entry and releases its chunk references; blocks
// with no remaining referents leave the store with it, and so do the cached
// pages of the blob runtimes reassembled from them (a plain blob's go when
// its staged file is removed).
func (w *Warehouse) dropEntry(e *cacheEntry) {
	delete(w.entries, e.AID)
	for _, cid := range e.CIDs {
		if aids := dropString(w.byCID[cid], e.AID); len(aids) > 0 {
			w.byCID[cid] = aids
		} else {
			delete(w.byCID, cid)
		}
	}
	if !e.chunked {
		w.stored -= e.Size
		_ = w.store.Remove(e.Path)
		return
	}
	w.store.Host().Evict(android.CodeCacheKey(e.AID))
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
		c.refs--
		if c.refs <= 0 {
			delete(w.chunks, h)
			w.stored -= c.size
			_ = w.store.Remove(chunkPath(h))
		}
	}
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
		var victim *cacheEntry
		for _, e := range w.entries {
			if victim == nil || e.lastBound < victim.lastBound ||
				(e.lastBound == victim.lastBound && e.seq < victim.seq) {
				victim = e
			}
		}
		w.dropEntry(victim)
		dropped++
	}
	w.evictions += dropped
	return dropped
}

// Evictions reports how many entries capacity enforcement has dropped.
func (w *Warehouse) Evictions() int { return w.evictions }

// Stats summarizes cache behaviour.
func (w *Warehouse) Stats() (entries, hits, misses int) {
	for _, e := range w.entries {
		hits += e.Hits
	}
	return len(w.entries), hits, w.misses
}

// StoredBytes is the total staged code volume: plain blobs plus the
// deduplicated chunk store — a block shared by many AIDs is counted once.
func (w *Warehouse) StoredBytes() host.Bytes { return w.stored }

// ChunkCount reports how many content-addressed blocks the store holds.
func (w *Warehouse) ChunkCount() int { return len(w.chunks) }
