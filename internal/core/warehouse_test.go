package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
)

func newTestWarehouse(t *testing.T, e *sim.Engine, capacity host.Bytes) *Warehouse {
	t.Helper()
	h := host.New(e, host.CloudServer())
	m, err := unionfs.NewMount(h, "wh-test", unionfs.NewTmpfs("wh-io"))
	if err != nil {
		t.Fatal(err)
	}
	return NewWarehouse(e, m, capacity)
}

// fullPush lands a whole blob as a device's full push does: under its
// synthetic manifest, writing the blocks the store lacks.
func fullPush(p *sim.Proc, w *Warehouse, aid, app string, size host.Bytes) error {
	_, err := w.land(p, aid, app, size, offload.SyntheticManifest(app, size))
	return err
}

// PutChunked must reject degenerate offers up front — an empty manifest
// used to panic on hashes[0], and a missing hash outside the offer used
// to abort mid-staging, leaking refcount-less blocks into the store.
// Every rejection must leave the store untouched.
func TestPutChunkedRejectsDegenerateOffers(t *testing.T) {
	e := sim.NewEngine(1)
	w := newTestWarehouse(t, e, 0)
	e.Spawn("test", func(p *sim.Proc) {
		if err := w.PutChunked(p, "aid-empty", "App", 0, nil, nil); err == nil {
			t.Error("empty manifest accepted")
		}
		size := 3 * offload.ChunkSize
		hashes := offload.SyntheticManifest("App", size)
		if err := w.PutChunked(p, "aid-short", "App", size, hashes[:1], nil); err == nil {
			t.Error("truncated manifest accepted")
		}
		if err := w.PutChunked(p, "aid-alien", "App", size, hashes, []uint64{0xabad1dea}); err == nil {
			t.Error("missing hash outside the offer accepted")
		}
		if n := w.ChunkCount(); n != 0 {
			t.Errorf("rejected pushes staged %d chunks", n)
		}
		if b := w.StoredBytes(); b != 0 {
			t.Errorf("rejected pushes stored %d bytes", b)
		}
		for _, aid := range []string{"aid-empty", "aid-short", "aid-alien"} {
			if _, ok := w.Lookup(aid); ok {
				t.Errorf("rejected push created entry %s", aid)
			}
		}
	})
	e.Run()
}

// A hash already in the store naming a block of a different size is a
// collision: re-referencing it would silently alias two distinct chunks,
// so PutChunked must refuse before mutating anything.
// chunkFiles lists the hashes of the blocks the store holds a file for.
func chunkFiles(t *testing.T, w *Warehouse) []uint64 {
	t.Helper()
	var hs []uint64
	for _, f := range w.store.List() {
		var h uint64
		if _, err := fmt.Sscanf(f.Path, "/warehouse/chunks/%x", &h); err == nil {
			hs = append(hs, h)
		}
	}
	slices.Sort(hs)
	return hs
}

// TestFailedChunkStagingLeavesNoOrphans: a delta push whose staging fails
// part way takes back the blocks it landed. It used to leave them in the
// store with no entry naming them, and the warehouse's audit, which read
// only the chunk table, passed. In the second case another push stages a
// shared block concurrently and is still staging when the first one fails,
// so the block must stay for it.
func TestFailedChunkStagingLeavesNoOrphans(t *testing.T) {
	size := 3 * offload.ChunkSize
	cases := []struct {
		name    string
		pushes  [][]uint64 // each push's manifest: all of it is missing
		failing uint64     // its write fails
		stalled uint64     // its write stalls for a second first
		want    []uint64   // the blocks held after all pushes returned
	}{
		{"single push", [][]uint64{{11, 12, 13}}, 12, 0, nil},
		{"concurrent pushes sharing a block", [][]uint64{{11, 12, 13}, {11, 14, 15}}, 12, 15, []uint64{11, 14, 15}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			w := newTestWarehouse(t, e, 0)
			w.store.SetFault(func(p *sim.Proc, path string, _ host.Bytes) error {
				switch path {
				case chunkPath(tc.failing):
					return fmt.Errorf("injected write failure")
				case chunkPath(tc.stalled):
					p.Sleep(time.Second)
				}
				return nil
			})
			errs := 0
			for i, hashes := range tc.pushes {
				e.Spawn("push", func(p *sim.Proc) {
					if err := w.PutChunked(p, fmt.Sprintf("aid-%d", i), "App", size, hashes, hashes); err != nil {
						errs++
					}
				})
			}
			e.Run()
			if errs != 1 {
				t.Fatalf("%d pushes failed, want 1", errs)
			}
			if got := chunkFiles(t, w); !slices.Equal(got, tc.want) {
				t.Errorf("store holds chunk files %x after the pushes, want %x", got, tc.want)
			}
			if w.ChunkCount() != len(tc.want) || w.StoredBytes() != host.Bytes(len(tc.want))*offload.ChunkSize {
				t.Errorf("%d chunks, %d bytes stored, want %d chunks", w.ChunkCount(), w.StoredBytes(), len(tc.want))
			}
			if err := w.Audit(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLandingRewritesABlockThatLeft: a full push writes only the blocks
// the store lacks and counts on the rest. When the one entry holding those
// leaves while the push writes its own, the blocks go with it; the pusher
// holds the whole blob, so the landing writes them in a second round
// instead of failing the push, and books both rounds' bytes.
func TestLandingRewritesABlockThatLeft(t *testing.T) {
	e := sim.NewEngine(1)
	w := newTestWarehouse(t, e, 0)
	size := 3*offload.ChunkSize - 100 // two library blocks and a tail, at size+1 too
	first, second := offload.SyntheticManifest("App", size), offload.SyntheticManifest("App", size+1)
	w.store.SetFault(func(_ *sim.Proc, path string, _ host.Bytes) error {
		if path == chunkPath(second[2]) {
			w.DropEntry("aid-1") // while the tail is written, the library leaves
		}
		return nil
	})
	e.Spawn("push", func(p *sim.Proc) {
		if err := fullPush(p, w, "aid-1", "App", size); err != nil {
			t.Fatal(err)
		}
		delta, full, err := w.ImportEntry(p, ExportedEntry{AID: "aid-2", App: "App", Size: size + 1, Hashes: second})
		if err != nil {
			t.Fatalf("the landing failed: %v", err)
		}
		if want := 2*offload.ChunkSpan(size+1, 2) + 2*offload.ChunkSize; delta != want || full != size+1 {
			t.Errorf("landing booked %d of %d bytes, want %d: the tail twice and the library once", delta, full, want)
		}
	})
	e.Run()
	if _, ok := w.Lookup("aid-1"); ok {
		t.Fatal("the first entry was not dropped; the test observes nothing")
	}
	if !slices.Equal(first[:2], second[:2]) {
		t.Fatal("the two sizes share no library blocks; the test observes nothing")
	}
	if got := chunkFiles(t, w); len(got) != 3 || w.ChunkCount() != 3 {
		t.Errorf("store holds %d chunk files and %d chunks after the landing, want 3", len(got), w.ChunkCount())
	}
	if err := w.Audit(); err != nil {
		t.Error(err)
	}
}

// TestWarehouseLoadIsATmpfsCopy: a staged code's blocks sit on the
// in-memory offloading layer, so a runtime's load of it, first or again, is
// one tmpfs copy of the blob: it reads nothing off the disk and caches
// nothing, and neither does dropping the entry after. A first load was
// charged as a disk read, and the entry kept a page cached for the blob.
func TestWarehouseLoadIsATmpfsCopy(t *testing.T) {
	e := sim.NewEngine(1)
	w := newTestWarehouse(t, e, 0)
	h := w.store.Host()
	h.RecordTimelines()
	size := 3*offload.ChunkSize + 100
	e.Spawn("load", func(p *sim.Proc) {
		if err := fullPush(p, w, "aid-1", "App", size); err != nil {
			t.Fatal(err)
		}
		t0 := e.Now()
		h.MemCopy(p, size)
		copyTime := e.Now() - t0
		if copyTime == 0 {
			t.Fatal("the blob copies in no time; the test observes nothing")
		}
		cached := h.CachedFiles()
		for _, load := range []string{"first", "hit"} {
			t0 = e.Now()
			w.load(p, size, 0.5)
			if took := e.Now() - t0; took != copyTime {
				t.Errorf("%s load took %v, want the tmpfs copy's %v", load, took.Duration(), copyTime.Duration())
			}
			if n := h.CachedFiles(); n != cached {
				t.Errorf("%s load: page cache holds %d files, %d before", load, n, cached)
			}
		}
		w.DropEntry("aid-1")
		if n := h.CachedFiles(); n != cached {
			t.Errorf("dropped entry: page cache holds %d files, %d before", n, cached)
		}
	})
	e.Run()
	for i, mbps := range h.DiskReadMBps(0, e.Now()+1, time.Millisecond) {
		if mbps != 0 {
			t.Fatalf("the disk read %.1f MB/s in millisecond %d; the blocks are on tmpfs", mbps, i)
		}
	}
	if err := w.Audit(); err != nil {
		t.Error(err)
	}
}

// TestChunkPathMatchesSprintfForm: the in-place hex encoding names a block
// exactly as fmt.Sprintf("/warehouse/chunks/%016x", h) did, and allocates
// only the string it returns.
func TestChunkPathMatchesSprintfForm(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		h := r.Uint64() >> r.Intn(64)
		if got, want := chunkPath(h), fmt.Sprintf("/warehouse/chunks/%016x", h); got != want {
			t.Fatalf("chunkPath(%#x) = %s, Sprintf form %s", h, got, want)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { _ = chunkPath(0xdeadbeefcafef00d) }); n > 1 {
		t.Fatalf("chunkPath allocates %.1f times, want at most 1 (the returned string)", n)
	}
}

// Audit's allocations do not grow with the store: it checks each block's
// recorded path against one built on the stack and walks the store's files
// in place. It built every block's path and listed the store, and a scenario's
// closing Cluster.Audit paid for each block it held.
func TestAuditAllocsIndependentOfBlocks(t *testing.T) {
	allocs := func(entries int) (float64, int) {
		e := sim.NewEngine(1)
		w := newTestWarehouse(t, e, 0)
		var a float64
		e.Spawn("test", func(p *sim.Proc) {
			for i := 0; i < entries; i++ {
				app := fmt.Sprintf("app-%d", i)
				size := 8 * offload.ChunkSize
				if err := fullPush(p, w, offload.AID(app, size), app, size); err != nil {
					t.Error(err)
					return
				}
			}
			if err := w.Audit(); err != nil {
				t.Error(err)
			}
			a = testing.AllocsPerRun(20, func() { _ = w.Audit() })
		})
		e.Run()
		return a, w.ChunkCount()
	}
	small, n := allocs(12)
	large, n4 := allocs(48)
	t.Logf("Audit allocates %.0f objects over %d blocks and %.0f over %d", small, n, large, n4)
	if n4 != 4*n {
		t.Fatalf("%d blocks and %d, want the second store four times the first", n, n4)
	}
	if large != small {
		t.Fatalf("Audit allocates %.0f objects over %d blocks and %.0f over %d; it must not grow with the store", small, n, large, n4)
	}
}

func TestPutChunkedDetectsSizeCollisions(t *testing.T) {
	e := sim.NewEngine(2)
	w := newTestWarehouse(t, e, 0)
	e.Spawn("test", func(p *sim.Proc) {
		size1 := 2*offload.ChunkSize + 17 // short final chunk
		hashes := offload.SyntheticManifest("App", size1)
		if err := w.PutChunked(p, "aid-1", "App", size1, hashes, w.MissingChunks(hashes)); err != nil {
			t.Errorf("first push: %v", err)
			return
		}
		staged := w.ChunkCount()
		// The same hash list offered for a chunk-aligned blob claims the
		// final hash at ChunkSize where the store holds 17 bytes.
		size2 := 3 * offload.ChunkSize
		if err := w.PutChunked(p, "aid-2", "App", size2, hashes, nil); err == nil {
			t.Error("size-conflicting chunk accepted")
		}
		if w.ChunkCount() != staged {
			t.Errorf("rejected push changed the store: %d -> %d chunks", staged, w.ChunkCount())
		}
		if _, ok := w.Lookup("aid-2"); ok {
			t.Error("rejected push created an entry")
		}
	})
	e.Run()
}

// checkWarehouseBooks compares the incremental bookkeeping with
// from-scratch recomputations: chunk references, the running byte total and
// the reverse CID index (Audit), and CIDsFor against a model whose unbind
// walks every entry the way UnbindCID used to.
func checkWarehouseBooks(w *Warehouse, model map[string]map[string]bool) error {
	if err := w.Audit(); err != nil {
		return err
	}
	for aid := range model {
		if _, ok := w.entries[aid]; !ok {
			delete(model, aid) // evicted or dropped
		}
	}
	for _, aid := range w.AIDs() {
		var want []string
		for cid := range model[aid] {
			want = append(want, cid)
		}
		sort.Strings(want)
		if got := w.CIDsFor(aid); !slices.Equal(got, want) {
			return fmt.Errorf("CIDsFor(%s) = %v, full-walk model says %v", aid, got, want)
		}
	}
	return nil
}

// Property: over a seeded random sequence of full and delta pushes,
// binds, unbinds, drops, capacity evictions and export/import between two
// warehouses, the O(1) books always equal the from-scratch answers.
func TestPropertyWarehouseBooksMatchRecomputation(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		e := sim.NewEngine(seed)
		// One bounded warehouse (so EnforceCapacity really evicts) and one
		// unbounded peer to exchange ranges with.
		ws := []*Warehouse{newTestWarehouse(t, e, 12*host.MB), newTestWarehouse(t, e, 0)}
		models := []map[string]map[string]bool{{}, {}}
		rng := rand.New(rand.NewSource(seed))
		e.Spawn("ops", func(p *sim.Proc) {
			for step := 0; step < 600; step++ {
				k := rng.Intn(2)
				w, model := ws[k], models[k]
				aid := fmt.Sprintf("aid-%d", rng.Intn(40))
				cid := fmt.Sprintf("cac-%d", rng.Intn(12))
				app := fmt.Sprintf("App%d", rng.Intn(3)) // families share library chunks
				size := host.Bytes(1+rng.Intn(40)) * 100 * host.KB
				switch op := rng.Intn(10); {
				case op < 2:
					if err := fullPush(p, w, aid, app, size); err != nil {
						t.Errorf("full push: %v", err)
					}
				case op < 4:
					hashes := offload.SyntheticManifest(app, size)
					if err := w.PutChunked(p, aid, app, size, hashes, w.MissingChunks(hashes)); err != nil {
						t.Errorf("put chunked: %v", err)
					}
				case op < 6:
					w.BindCID(aid, cid)
					if _, ok := w.Lookup(aid); ok {
						if model[aid] == nil {
							model[aid] = map[string]bool{}
						}
						model[aid][cid] = true
					}
				case op < 7:
					w.UnbindCID(cid)
					for _, cids := range model { // the old full walk
						delete(cids, cid)
					}
				case op < 8:
					w.DropEntry(aid)
				case op < 9:
					w.EnforceCapacity()
				default:
					peer := ws[1-k]
					half := func(a string) bool { return len(a)%2 == step%2 }
					for _, ent := range w.ExportRange(half) {
						if _, _, err := peer.ImportEntry(p, ent); err != nil {
							t.Errorf("import %s: %v", ent.AID, err)
						}
					}
				}
				for i := range ws {
					if err := checkWarehouseBooks(ws[i], models[i]); err != nil {
						t.Errorf("seed %d, step %d, warehouse %d: %v", seed, step, i, err)
						return
					}
				}
			}
		})
		e.Run()
		if ws[0].Evictions() == 0 {
			t.Errorf("seed %d: the bounded warehouse never evicted", seed)
		}
	}
}

// scanVictim is the eviction choice as EnforceCapacity made it before the
// heap: one pass over the whole cache table for the least (lastBound, seq).
func scanVictim(w *Warehouse) *cacheEntry {
	var victim *cacheEntry
	for _, e := range w.entries {
		if victim == nil || e.lastBound < victim.lastBound ||
			(e.lastBound == victim.lastBound && e.seq < victim.seq) {
			victim = e
		}
	}
	return victim
}

// scanEnforce is EnforceCapacity as it was: scan for the victim, drop it,
// repeat.
func scanEnforce(w *Warehouse) int {
	if w.capacity <= 0 {
		return 0
	}
	dropped := 0
	for w.StoredBytes() > w.capacity && len(w.entries) > 1 {
		w.dropEntry(scanVictim(w))
		dropped++
	}
	w.evictions += dropped
	return dropped
}

// checkEvictOrder checks the heap against the table: every entry is in it
// once at the index it records, and its root is the scan's victim.
func checkEvictOrder(w *Warehouse) error {
	if len(w.order) != len(w.entries) {
		return fmt.Errorf("heap holds %d entries, table %d", len(w.order), len(w.entries))
	}
	for i, sl := range w.order {
		e := sl.e
		if e.heapIdx != i || w.entries[e.AID] != e || sl != e.slot() {
			return fmt.Errorf("heap slot %d holds %s recording index %d", i, e.AID, e.heapIdx)
		}
		if i > 0 && sl.before(w.order[(i-1)/2]) {
			return fmt.Errorf("heap slot %d (%s) orders before its parent", i, e.AID)
		}
	}
	if len(w.order) > 0 && w.order[0].e != scanVictim(w) {
		return fmt.Errorf("heap root %s, the scan picks %s", w.order[0].e.AID, scanVictim(w).AID)
	}
	return nil
}

// Property: the eviction heap evicts exactly what the O(n) scan did. Two
// worlds on engines of their own run one seeded op list — full and delta
// pushes, binds (bursts of them at one virtual instant, so lastBound ties
// and seq decides), imports from a peer, drops and capacity enforcement —
// one enforcing through the heap, the other through the scan. After every
// op their cache tables and eviction counts must agree, and the heap's root
// must be the scan's victim.
func TestPropertyEvictionOrderMatchesScan(t *testing.T) {
	type op struct {
		kind          int
		aid, cid, app string
		size          host.Bytes
		sleep         time.Duration
	}
	ties := 0 // enforcements whose victim shared its lastBound with another entry
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]op, 400)
		for i := range ops {
			o := op{
				kind: rng.Intn(10),
				aid:  fmt.Sprintf("aid-%d", rng.Intn(80)),
				cid:  fmt.Sprintf("cac-%d", rng.Intn(8)),
				app:  fmt.Sprintf("App%d", rng.Intn(3)),
				size: host.Bytes(1+rng.Intn(10)) * 50 * host.KB,
			}
			if rng.Intn(4) == 0 { // otherwise the next op runs at the same instant
				o.sleep = time.Duration(1+rng.Intn(5)) * time.Millisecond
			}
			ops[i] = o
		}
		type world struct {
			w, peer *Warehouse
			log     []string // per step: the cache table and the eviction count
		}
		run := func(viaHeap bool) *world {
			e := sim.NewEngine(seed)
			// The ops name 30 distinct blobs, whose deduplicated blocks
			// come to about 3 MB: 1 MB keeps every seed evicting.
			wd := &world{w: newTestWarehouse(t, e, host.MB), peer: newTestWarehouse(t, e, 0)}
			e.Spawn("ops", func(p *sim.Proc) {
				for step, o := range ops {
					w := wd.w
					switch {
					case o.kind < 2:
						if err := fullPush(p, w, o.aid, o.app, o.size); err != nil {
							t.Errorf("full push: %v", err)
						}
					case o.kind < 3:
						hashes := offload.SyntheticManifest(o.app, o.size)
						if err := w.PutChunked(p, o.aid, o.app, o.size, hashes, w.MissingChunks(hashes)); err != nil {
							t.Errorf("put chunked: %v", err)
						}
					case o.kind < 6:
						w.BindCID(o.aid, o.cid)
					case o.kind < 7:
						if err := fullPush(p, wd.peer, o.aid, o.app, o.size); err != nil {
							t.Errorf("peer full push: %v", err)
						}
						if ent, ok := wd.peer.Export(o.aid); ok {
							if _, _, err := w.ImportEntry(p, ent); err != nil {
								t.Errorf("import: %v", err)
							}
						}
					case o.kind < 8:
						w.DropEntry(o.aid)
					default:
						if viaHeap {
							if len(w.order) > 1 && tiedAtRoot(w) {
								ties++
							}
							w.EnforceCapacity()
						} else {
							scanEnforce(w)
						}
					}
					if viaHeap {
						if err := checkEvictOrder(w); err != nil {
							t.Errorf("seed %d, step %d: %v", seed, step, err)
						}
					}
					wd.log = append(wd.log, fmt.Sprint(w.AIDs(), w.Evictions()))
					p.Sleep(o.sleep)
				}
			})
			e.Run()
			return wd
		}
		heapWorld, scanWorld := run(true), run(false)
		if t.Failed() {
			return
		}
		for step := range ops {
			if heapWorld.log[step] != scanWorld.log[step] {
				t.Fatalf("seed %d, step %d: heap world %s, scan world %s", seed, step, heapWorld.log[step], scanWorld.log[step])
			}
		}
		if heapWorld.w.Evictions() == 0 {
			t.Errorf("seed %d: nothing was evicted; the test observes nothing", seed)
		}
	}
	if ties == 0 {
		t.Error("no enforcement met a lastBound tie; the seq tie-break is not exercised")
	}
}

// tiedAtRoot reports whether another entry shares the heap root's lastBound.
func tiedAtRoot(w *Warehouse) bool {
	for _, sl := range w.order[1:] {
		if sl.lastBound == w.order[0].lastBound {
			return true
		}
	}
	return false
}
