package core

import (
	"sort"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// Warehouse export/import: the chunk-level migration primitive behind live
// resharding. A membership change moves vnode ranges between shards; the
// unit that actually crosses the wire is the 64 KiB content-addressed
// chunk, negotiated through the same MissingChunks dedup the device delta
// push uses — a joining shard pulls only blocks its store lacks, so an
// app family whose library chunks already replicated over costs a few
// size-salted tail blocks, not the whole blob.

// ExportedEntry is one warehouse row in transferable form: its manifest,
// which the importing side negotiates chunk by chunk.
type ExportedEntry struct {
	AID    string
	App    string
	Size   host.Bytes
	Hashes []uint64
}

// export puts one warehouse row in transferable form.
func (e *cacheEntry) export() ExportedEntry {
	return ExportedEntry{AID: e.AID, App: e.App, Size: e.Size, Hashes: e.Hashes}
}

// Export returns aid's entry in transferable form, if the warehouse holds
// it: the per-AID lookup behind replica fan-out and repair.
func (w *Warehouse) Export(aid string) (ExportedEntry, bool) {
	e, ok := w.entries[aid]
	if !ok {
		return ExportedEntry{}, false
	}
	return e.export(), true
}

// ExportRange lists the warehouse entries whose AID satisfies match, in
// insertion (seq) order so migration transfers are deterministic.
func (w *Warehouse) ExportRange(match func(aid string) bool) []ExportedEntry {
	var rows []*cacheEntry
	for _, e := range w.entries {
		if match(e.AID) {
			rows = append(rows, e)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	out := make([]ExportedEntry, 0, len(rows))
	for _, e := range rows {
		out = append(out, e.export())
	}
	return out
}

// ImportEntry lands an exported entry in this warehouse, blocking p for
// the chunk writes. It is the server half of the anti-entropy exchange,
// landed as a device's full push is (land): MissingChunks decides what
// actually transfers, PutChunked stages it. Returns the delta bytes written
// and the full-blob size (what a naive whole-blob copy would have moved);
// an AID already present imports as (0, 0, nil) — idempotent, so
// overlapping rebalances converge.
func (w *Warehouse) ImportEntry(p *sim.Proc, ent ExportedEntry) (delta, full host.Bytes, err error) {
	if _, ok := w.entries[ent.AID]; ok {
		return 0, 0, nil
	}
	if delta, err = w.land(p, ent.AID, ent.App, ent.Size, ent.Hashes); err != nil {
		return 0, 0, err
	}
	return delta, ent.Size, nil
}

// DropEntry removes an AID after its range migrated away, releasing its
// chunk references (blocks at refs=0 leave the store — the same invariant
// eviction maintains). Reports whether the entry existed.
func (w *Warehouse) DropEntry(aid string) bool {
	e, ok := w.entries[aid]
	if !ok {
		return false
	}
	w.dropEntry(e)
	return true
}

// AIDs lists every cached AID, sorted (migration planning needs a stable
// iteration order).
func (w *Warehouse) AIDs() []string {
	out := make([]string, 0, len(w.entries))
	for aid := range w.entries {
		out = append(out, aid)
	}
	sort.Strings(out)
	return out
}
