package offload

import (
	"encoding/binary"
	"fmt"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// Content-addressed code chunking: the delta half of the warehouse. A code
// blob is split into fixed-size chunks, each named by its content hash
// (FNV-1a with a murmur fmix64 finalizer — the same hash discipline as the
// cluster ring, which already learned that raw FNV clusters related keys).
// A device offers the hash list of its blob; the server answers with the
// subset its chunk store is missing; only those chunks cross the network.
// App families sharing libraries (the same app at different code sizes)
// therefore transfer their common prefix exactly once, ever.

// ChunkSize is the fixed content-addressing granularity. 64 KiB keeps the
// hash list small (8 bytes per 64 KiB ≈ 0.012% overhead) while still
// splitting a multi-megabyte app into enough chunks to dedup libraries.
const ChunkSize = 64 * host.KB

// fmix64 is the murmur3 64-bit avalanche finalizer.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ChunkHash names a chunk by its content: 64-bit FNV-1a, finalized with
// fmix64 so related chunks (shared prefixes, counter-stamped tails) spread
// over the full hash space. 64 bits keeps birthday collisions negligible
// at fleet scale (a 32-bit hash reaches ~50% collision odds at only ~77k
// unique chunks — a few GiB of unique code — and a collision silently
// aliases two distinct chunks); at 8 B per 64 KiB the wire cost is noise.
func ChunkHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return fmix64(h)
}

// SplitBlob cuts data into ChunkSize chunks; the last chunk may be short.
// The chunks alias data (no copying). An empty blob has no chunks.
func SplitBlob(data []byte) [][]byte {
	if len(data) == 0 {
		return nil
	}
	n := (len(data) + int(ChunkSize) - 1) / int(ChunkSize)
	out := make([][]byte, 0, n)
	for off := 0; off < len(data); off += int(ChunkSize) {
		end := off + int(ChunkSize)
		if end > len(data) {
			end = len(data)
		}
		out = append(out, data[off:end:end])
	}
	return out
}

// ChunkBlob returns the content hashes of data's chunks, in order.
func ChunkBlob(data []byte) []uint64 {
	chunks := SplitBlob(data)
	if chunks == nil {
		return nil
	}
	out := make([]uint64, len(chunks))
	for i, c := range chunks {
		out[i] = ChunkHash(c)
	}
	return out
}

// ChunkCount returns how many chunks a blob of the given size splits into.
func ChunkCount(size host.Bytes) int {
	if size <= 0 {
		return 0
	}
	return int((size + ChunkSize - 1) / ChunkSize)
}

// ChunkSpan returns the byte size of chunk i of a blob of the given total
// size: ChunkSize for every chunk but a short last one.
func ChunkSpan(size host.Bytes, i int) host.Bytes {
	n := ChunkCount(size)
	if i < 0 || i >= n {
		return 0
	}
	if i == n-1 {
		return size - host.Bytes(n-1)*ChunkSize
	}
	return ChunkSize
}

// SyntheticManifest derives the chunk-hash list of a modeled code blob
// (the simulated path carries sizes, not bytes). Hashes are a pure
// function of (app, size), so every holder of the same blob derives the
// same manifest. The leading ~7/8 of chunks are salted only by the app
// name and chunk index — the shared library segment that all code sizes
// of one app family have in common — while the tail ~1/8 is additionally
// salted by the exact size: the variant's unique code.
func SyntheticManifest(app string, size host.Bytes) []uint64 {
	n := ChunkCount(size)
	if n == 0 {
		return nil
	}
	uniq := (n + 7) / 8
	shared := n - uniq
	out := make([]uint64, n)
	for i := range out {
		var seed string
		if i < shared {
			seed = fmt.Sprintf("%s:lib:%d", app, i)
		} else {
			seed = fmt.Sprintf("%s:%d:uniq:%d", app, size, i)
		}
		out[i] = ChunkHash([]byte(seed))
	}
	return out
}

// PackHashes flattens a hash list to 8-byte little-endian words — the
// payload format chunk offers and need-replies carry on the wire.
func PackHashes(hs []uint64) []byte {
	if len(hs) == 0 {
		return nil
	}
	out := make([]byte, 8*len(hs))
	for i, h := range hs {
		binary.LittleEndian.PutUint64(out[8*i:], h)
	}
	return out
}

// UnpackHashes parses a packed hash list.
func UnpackHashes(b []byte) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("offload: packed hash list of %d bytes is not a multiple of 8", len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out, nil
}

// DeltaBytes sums the payload bytes of the missing chunks of an offer —
// what a delta push actually moves over the network.
func DeltaBytes(offer ChunkOffer, missing []uint64) host.Bytes {
	if len(missing) == 0 {
		return 0
	}
	idx := make(map[uint64]host.Bytes, len(offer.Hashes))
	for i, h := range offer.Hashes {
		if _, ok := idx[h]; !ok {
			idx[h] = ChunkSpan(offer.Size, i)
		}
	}
	var total host.Bytes
	for _, h := range missing {
		total += idx[h]
	}
	return total
}

// ChunkOffer is a device's delta-push opening: the identity of the blob it
// wants to push and the content hashes of its chunks.
type ChunkOffer struct {
	AID    string
	App    string
	Size   host.Bytes
	Seq    int
	Hashes []uint64
}

// ChunkNeed is the server's answer: the subset of offered chunks its
// store is missing. Supported=false means the server will not take this
// push as a delta (no warehouse, or a malformed offer) and the device must
// fall back to a full push.
type ChunkNeed struct {
	Seq       int
	AID       string
	Missing   []uint64
	Supported bool
}

// ChunkedSession is a Session that can negotiate a content-addressed delta
// push instead of a full code transfer.
type ChunkedSession interface {
	Session
	// NegotiateChunks answers an offer with the chunks the server is
	// missing. A Supported=false reply tells the device to fall back to
	// PushCode.
	NegotiateChunks(p *sim.Proc, offer ChunkOffer) (ChunkNeed, error)
	// PushChunks completes a negotiated delta push: only the missing
	// chunks were transferred; the warehouse stages them and binds the
	// reassembled blob under the offer's AID.
	PushChunks(p *sim.Proc, offer ChunkOffer, missing []uint64) error
}

// Wire carriers: chunk frames ride the Frame's ExecRequest payload slot
// rather than growing Frame by two more pointer fields; on the wire they
// have their own kind bytes and carry only the fields below. Field mapping:
//
//	Exec.AID        = offer/need AID
//	Exec.App        = offer App (offers only)
//	Exec.ParamBytes = offer Size (offers only)
//	Exec.Seq        = Seq
//	Exec.RoundTrips = need Supported (1/0; need replies only)
//	Exec.Params     = packed hash list (offered / missing)

// ChunkOfferFrame packs an offer into its wire frame.
func ChunkOfferFrame(o *ChunkOffer) Frame {
	return Frame{Kind: KindChunkOffer, Exec: &ExecRequest{
		AID:        o.AID,
		App:        o.App,
		ParamBytes: o.Size,
		Seq:        o.Seq,
		Params:     PackHashes(o.Hashes),
	}}
}

// DecodeChunkOffer unpacks a KindChunkOffer frame.
func DecodeChunkOffer(f Frame) (ChunkOffer, error) {
	if f.Kind != KindChunkOffer || f.Exec == nil {
		return ChunkOffer{}, fmt.Errorf("offload: not a chunk offer frame (kind %q)", f.Kind)
	}
	hs, err := UnpackHashes(f.Exec.Params)
	if err != nil {
		return ChunkOffer{}, err
	}
	return ChunkOffer{
		AID:    f.Exec.AID,
		App:    f.Exec.App,
		Size:   f.Exec.ParamBytes,
		Seq:    f.Exec.Seq,
		Hashes: hs,
	}, nil
}

// ChunkNeedFrame packs a need-reply into its wire frame.
func ChunkNeedFrame(n *ChunkNeed) Frame {
	sup := 0
	if n.Supported {
		sup = 1
	}
	return Frame{Kind: KindChunkNeed, Exec: &ExecRequest{
		AID:        n.AID,
		Seq:        n.Seq,
		RoundTrips: sup,
		Params:     PackHashes(n.Missing),
	}}
}

// DecodeChunkNeed unpacks a KindChunkNeed frame.
func DecodeChunkNeed(f Frame) (ChunkNeed, error) {
	if f.Kind != KindChunkNeed || f.Exec == nil {
		return ChunkNeed{}, fmt.Errorf("offload: not a chunk need frame (kind %q)", f.Kind)
	}
	hs, err := UnpackHashes(f.Exec.Params)
	if err != nil {
		return ChunkNeed{}, err
	}
	return ChunkNeed{
		AID:       f.Exec.AID,
		Seq:       f.Exec.Seq,
		Supported: f.Exec.RoundTrips != 0,
		Missing:   hs,
	}, nil
}
