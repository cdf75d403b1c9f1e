package offload

import (
	"bytes"
	"reflect"
	"testing"

	"rattrap/internal/host"
)

func TestSplitBlobReassembly(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x42},
		bytes.Repeat([]byte{7}, int(ChunkSize)),
		bytes.Repeat([]byte{7}, int(ChunkSize)+1),
		bytes.Repeat([]byte{9}, 3*int(ChunkSize)),
	}
	for _, data := range cases {
		chunks := SplitBlob(data)
		var re []byte
		for _, c := range chunks {
			re = append(re, c...)
		}
		if !bytes.Equal(re, data) && len(data) > 0 {
			t.Fatalf("reassembly of %d bytes produced %d bytes", len(data), len(re))
		}
		if len(chunks) != ChunkCount(host.Bytes(len(data))) {
			t.Fatalf("SplitBlob len %d != ChunkCount %d", len(chunks), ChunkCount(host.Bytes(len(data))))
		}
		if got := ChunkBlob(data); len(got) != len(chunks) {
			t.Fatalf("ChunkBlob len %d != SplitBlob len %d", len(got), len(chunks))
		}
	}
}

func TestChunkSpanSums(t *testing.T) {
	for _, size := range []host.Bytes{0, 1, ChunkSize, ChunkSize + 1, 5*ChunkSize - 3} {
		var total host.Bytes
		for i := 0; i < ChunkCount(size); i++ {
			sp := ChunkSpan(size, i)
			if sp <= 0 || sp > ChunkSize {
				t.Fatalf("ChunkSpan(%d, %d) = %d", size, i, sp)
			}
			total += sp
		}
		if total != size {
			t.Fatalf("chunk spans of %d sum to %d", size, total)
		}
	}
}

// An app family (same app, different code sizes) must share its library
// prefix: the ISSUE's delta criterion is <30% of full-push bytes when
// ≥70% of chunks are shared.
func TestSyntheticManifestFamilySharing(t *testing.T) {
	const app = "ChessGame"
	a := SyntheticManifest(app, 5*host.MB)
	b := SyntheticManifest(app, 5*host.MB+512*host.KB)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different sizes produced identical manifests")
	}
	have := make(map[uint64]bool, len(a))
	for _, h := range a {
		have[h] = true
	}
	var missing []uint64
	for _, h := range b {
		if !have[h] {
			missing = append(missing, h)
		}
	}
	offer := ChunkOffer{App: app, Size: 5*host.MB + 512*host.KB, Hashes: b}
	delta := DeltaBytes(offer, missing)
	if ratio := float64(delta) / float64(offer.Size); ratio >= 0.30 {
		t.Fatalf("family delta ratio %.2f, want < 0.30 (delta %d of %d)", ratio, delta, offer.Size)
	}
	// Unrelated apps share nothing.
	c := SyntheticManifest("Linpack", 5*host.MB)
	for _, h := range c {
		if have[h] {
			t.Fatalf("unrelated app shares chunk %016x", h)
		}
	}
	// Determinism: same inputs, same manifest.
	if !reflect.DeepEqual(a, SyntheticManifest(app, 5*host.MB)) {
		t.Fatal("manifest not deterministic")
	}
}

func TestPackHashesRoundTrip(t *testing.T) {
	hs := []uint64{0, 1, 0xdeadbeef, 0xdeadbeefcafef00d, 0xffffffffffffffff}
	got, err := UnpackHashes(PackHashes(hs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, hs) {
		t.Fatalf("round trip = %v, want %v", got, hs)
	}
	if _, err := UnpackHashes([]byte{1, 2, 3}); err == nil {
		t.Fatal("odd-length hash list accepted")
	}
	if got, err := UnpackHashes(nil); err != nil || got != nil {
		t.Fatalf("empty list = %v, %v", got, err)
	}
}

// Chunk frames must round-trip over the wire codec.
func TestChunkFramesRoundTrip(t *testing.T) {
	offer := ChunkOffer{AID: "abc12345", App: "ChessGame", Size: 2300 * host.KB, Seq: 7,
		Hashes: SyntheticManifest("ChessGame", 2300*host.KB)}
	need := ChunkNeed{Seq: 7, AID: "abc12345", Supported: true, Missing: offer.Hashes[:3]}
	var stream bytes.Buffer
	send := NewConn(&stream)
	recv := NewConn(&stream)
	if err := send.Send(ChunkOfferFrame(&offer)); err != nil {
		t.Fatal(err)
	}
	f, err := recv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeChunkOffer(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, offer) {
		t.Fatalf("offer round trip = %+v, want %+v", got, offer)
	}
	if err := send.Send(ChunkNeedFrame(&need)); err != nil {
		t.Fatal(err)
	}
	if f, err = recv.Recv(); err != nil {
		t.Fatal(err)
	}
	gotNeed, err := DecodeChunkNeed(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotNeed, need) {
		t.Fatalf("need round trip = %+v, want %+v", gotNeed, need)
	}
	// An unsupported reply must survive with nil Missing.
	no := ChunkNeed{Seq: 3, AID: "x"}
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(ChunkNeedFrame(&no)); err != nil {
		t.Fatal(err)
	}
	if f, err = NewConn(&buf).Recv(); err != nil {
		t.Fatal(err)
	}
	gotNo, err := DecodeChunkNeed(f)
	if err != nil {
		t.Fatal(err)
	}
	if gotNo.Supported || gotNo.Missing != nil {
		t.Fatalf("unsupported reply = %+v", gotNo)
	}
}

// FuzzChunker: the chunker must never panic and must preserve identity
// under split-and-reassemble for any input — empty blobs, chunk-aligned
// sizes and 1-byte blobs included (seeded below).
// Run with `go test -fuzz FuzzChunker ./internal/offload/`.
func FuzzChunker(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(bytes.Repeat([]byte{0xab}, int(ChunkSize)))
	f.Add(bytes.Repeat([]byte{0xcd}, 2*int(ChunkSize)+17))
	f.Fuzz(func(t *testing.T, data []byte) {
		chunks := SplitBlob(data)
		hashes := ChunkBlob(data)
		if len(chunks) != len(hashes) || len(chunks) != ChunkCount(host.Bytes(len(data))) {
			t.Fatalf("chunk census disagrees: %d chunks, %d hashes, count %d",
				len(chunks), len(hashes), ChunkCount(host.Bytes(len(data))))
		}
		var re []byte
		var spanned host.Bytes
		for i, c := range chunks {
			re = append(re, c...)
			if ChunkHash(c) != hashes[i] {
				t.Fatal("ChunkBlob hash disagrees with ChunkHash of the split chunk")
			}
			if sp := ChunkSpan(host.Bytes(len(data)), i); sp != host.Bytes(len(c)) {
				t.Fatalf("ChunkSpan(%d) = %d, chunk is %d bytes", i, sp, len(c))
			} else {
				spanned += sp
			}
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("reassembly changed the blob: %d -> %d bytes", len(data), len(re))
		}
		if spanned != host.Bytes(len(data)) {
			t.Fatalf("spans sum to %d, blob is %d", spanned, len(data))
		}
		// Packed hash lists round-trip.
		got, err := UnpackHashes(PackHashes(hashes))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(hashes) {
			t.Fatalf("packed round trip lost hashes: %d -> %d", len(hashes), len(got))
		}
		for i := range got {
			if got[i] != hashes[i] {
				t.Fatalf("hash %d changed in packing", i)
			}
		}
	})
}
