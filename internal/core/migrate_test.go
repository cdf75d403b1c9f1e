package core

import (
	"slices"
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
)

// TestExportImportRoundTrip: ExportRange hands back the manifest a full
// push landed under, ImportEntry lands it with delta accounting, and a
// second import of the same AID is an idempotent no-op.
func TestExportImportRoundTrip(t *testing.T) {
	e := sim.NewEngine(21)
	src := newTestWarehouse(t, e, 0)
	dst := newTestWarehouse(t, e, 0)
	e.Spawn("test", func(p *sim.Proc) {
		size := 5*offload.ChunkSize + 101
		if err := fullPush(p, src, "aid-full", "App", size); err != nil {
			t.Fatalf("full push: %v", err)
		}
		ents := src.ExportRange(func(string) bool { return true })
		if len(ents) != 1 || ents[0].AID != "aid-full" {
			t.Fatalf("export: %+v", ents)
		}
		if want := offload.SyntheticManifest("App", size); !slices.Equal(ents[0].Hashes, want) {
			t.Fatalf("full push exported manifest %x, want %x", ents[0].Hashes, want)
		}
		delta, full, err := dst.ImportEntry(p, ents[0])
		if err != nil {
			t.Fatalf("import: %v", err)
		}
		if full != size || delta == 0 || delta > full {
			t.Fatalf("import accounting: delta=%d full=%d size=%d", delta, full, size)
		}
		if _, ok := dst.Lookup("aid-full"); !ok {
			t.Fatal("imported entry missing")
		}
		if d2, f2, err := dst.ImportEntry(p, ents[0]); err != nil || d2 != 0 || f2 != 0 {
			t.Fatalf("re-import not idempotent: delta=%d full=%d err=%v", d2, f2, err)
		}
	})
	e.Run()
}

// TestEvictThenRemigrateKeepsRefcountsClean is the LRU-vs-replication
// interplay gate: an entry that is replicated in, evicted by capacity
// enforcement, and then re-migrated must behave like a fresh entry — its
// re-import re-transfers exactly the chunks eviction released (shared
// blocks still pinned by a surviving entry do not re-transfer), and one
// final drop of each entry empties the store completely. Stale refcounts
// in either direction would leave orphaned blocks (refs never reaching 0)
// or delete blocks still referenced (refs reaching 0 early).
func TestEvictThenRemigrateKeepsRefcountsClean(t *testing.T) {
	e := sim.NewEngine(22)
	src := newTestWarehouse(t, e, 0)
	dst := newTestWarehouse(t, e, 0)
	e.Spawn("test", func(p *sim.Proc) {
		// Two size variants of one app: synthetic manifests share the
		// app's library chunks and differ in the size-salted tail.
		sizeA := host.Bytes(8 * offload.ChunkSize)
		sizeB := sizeA + 7
		for aid, size := range map[string]host.Bytes{"aid-A": sizeA, "aid-B": sizeB} {
			hashes := offload.SyntheticManifest("App", size)
			if err := src.PutChunked(p, aid, "App", size, hashes, src.MissingChunks(hashes)); err != nil {
				t.Fatalf("seed %s: %v", aid, err)
			}
		}
		exp := src.ExportRange(func(string) bool { return true })
		if len(exp) != 2 {
			t.Fatalf("exported %d entries, want 2", len(exp))
		}
		byAID := map[string]ExportedEntry{}
		for _, ent := range exp {
			byAID[ent.AID] = ent
		}

		// Replicate both in; B lands second so A is least-recently-bound.
		if _, _, err := dst.ImportEntry(p, byAID["aid-A"]); err != nil {
			t.Fatalf("import A: %v", err)
		}
		p.Sleep(1) // order lastBound stamps
		deltaB1, _, err := dst.ImportEntry(p, byAID["aid-B"])
		if err != nil {
			t.Fatalf("import B: %v", err)
		}
		if deltaB1 >= sizeB {
			t.Fatalf("B's first import moved %d bytes — shared library chunks did not dedup", deltaB1)
		}

		// Shrink capacity until A is evicted (B is newer and survives).
		dst.capacity = dst.StoredBytes() - 1
		if n := dst.EnforceCapacity(); n != 1 {
			t.Fatalf("eviction dropped %d entries, want 1", n)
		}
		if _, ok := dst.Lookup("aid-A"); ok {
			t.Fatal("LRU evicted the wrong entry")
		}
		if _, ok := dst.Lookup("aid-B"); !ok {
			t.Fatal("eviction took the surviving entry too")
		}

		// Remigrate A. Only its exclusive tail chunks were released by the
		// eviction; the shared library chunks are still pinned by B and
		// must not re-transfer.
		dst.capacity = 0
		deltaA2, fullA2, err := dst.ImportEntry(p, byAID["aid-A"])
		if err != nil {
			t.Fatalf("re-import A: %v", err)
		}
		if fullA2 != sizeA {
			t.Fatalf("re-import full = %d, want %d", fullA2, sizeA)
		}
		if deltaA2 == 0 || deltaA2 >= sizeA {
			t.Fatalf("re-import delta = %d (full %d): eviction left refcounts stale", deltaA2, sizeA)
		}

		// The refs=0 delete invariant end to end: dropping each entry once
		// must empty the store — nothing orphaned, nothing double-freed.
		if !dst.DropEntry("aid-B") || !dst.DropEntry("aid-A") {
			t.Fatal("drop refused an existing entry")
		}
		if n := dst.ChunkCount(); n != 0 {
			t.Fatalf("%d chunks orphaned after dropping every entry", n)
		}
		if b := dst.StoredBytes(); b != 0 {
			t.Fatalf("%d bytes orphaned after dropping every entry", b)
		}
		if dst.DropEntry("aid-A") {
			t.Fatal("dropping a dropped entry succeeded")
		}
	})
	e.Run()
}
