package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

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

// recomputeStored is StoredBytes as it was computed before the running
// total: every plain entry plus every block of the chunk store.
func recomputeStored(w *Warehouse) host.Bytes {
	var t host.Bytes
	for _, e := range w.entries {
		if !e.chunked {
			t += e.Size
		}
	}
	for _, c := range w.chunks {
		t += c.size
	}
	return t
}

// checkWarehouseBooks compares the incremental bookkeeping with
// from-scratch recomputations: the running byte total, the reverse CID
// index against the entries' own CID lists, and CIDsFor against a model
// whose unbind walks every entry the way UnbindCID used to.
func checkWarehouseBooks(w *Warehouse, model map[string]map[string]bool) error {
	if got, want := w.StoredBytes(), recomputeStored(w); got != want {
		return fmt.Errorf("running total %d, recomputed %d", got, want)
	}
	pairs := 0
	for aid, e := range w.entries {
		for _, cid := range e.CIDs {
			pairs++
			if !slices.Contains(w.byCID[cid], aid) {
				return fmt.Errorf("%s bound to %s but missing from the reverse index", aid, cid)
			}
		}
	}
	for cid, aids := range w.byCID {
		if len(aids) == 0 {
			return fmt.Errorf("empty reverse-index set left for %s", cid)
		}
		pairs -= len(aids)
	}
	if pairs != 0 {
		return fmt.Errorf("reverse index holds %d bindings the entries do not", -pairs)
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

// Property: over a seeded random sequence of plain and chunked pushes,
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
					if err := w.Put(p, aid, app, size); err != nil {
						t.Errorf("put: %v", err)
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
