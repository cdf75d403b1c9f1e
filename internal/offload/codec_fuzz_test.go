package offload

import (
	"bytes"
	"io"
	"testing"

	"rattrap/internal/host"
)

// FuzzFrameCodec throws arbitrary bytes at Conn.Recv. The codec must
// never panic, never allocate beyond the frame limit, and — when the
// input happens to be a valid frame — reach a fix-point: decode → encode
// → decode yields an equal frame.
// Run with `go test -fuzz FuzzFrameCodec ./internal/offload/`
// (ci.sh runs a short smoke pass).
func FuzzFrameCodec(f *testing.F) {
	// Seed corpus: valid encodings covering all seven frame kinds, plus
	// broken prefixes and garbage.
	offer := ChunkOffer{AID: "abc", App: "ChessGame", Size: 200 * host.KB, Seq: 3,
		Hashes: SyntheticManifest("ChessGame", 200*host.KB)}
	need := ChunkNeed{AID: "abc", Seq: 3, Supported: true, Missing: offer.Hashes[:2]}
	valid := []Frame{
		{Kind: KindHello, Hello: &Hello{DeviceID: "phone-1"}},
		{Kind: KindExec, Exec: &ExecRequest{
			DeviceID: "phone-1", AID: "abc", App: "ChessGame", Method: "bestMove",
			Seq: 3, Params: []byte{1, 2, 3}, ParamBytes: 122 * host.KB,
		}},
		{Kind: KindExec, Exec: &ExecRequest{AID: "x", Seq: -9, ParamBytes: -1, RoundTrips: -2}},
		{Kind: KindNeedCode},
		{Kind: KindNeedCode, NeedCode: &NeedCode{Seq: 3, AID: "abc"}},
		{Kind: KindCode, Code: &CodePush{AID: "abc", App: "ChessGame", Size: 2300 * host.KB}},
		{Kind: KindResult, Result: &Result{Output: "ok", ResultBytes: 7600}},
		{Kind: KindResult, Result: &Result{Err: "queue full", Code: CodeOverloaded, RetryAfterMs: 100}},
		ChunkOfferFrame(&offer),
		ChunkNeedFrame(&need),
	}
	for _, fr := range valid {
		var buf bytes.Buffer
		if err := NewConn(&buf).Send(fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge uvarint
	f.Add([]byte{0x05, 0x01, 0x02})                                           // truncated payload
	f.Add([]byte{0x00})                                                       // zero-length frame
	f.Add([]byte{0x04, binMagic, BinaryWireVersion, binKindHello, 0x00})      // short hello
	f.Add([]byte{0x02, binMagic, 0x07})                                       // unknown wire version
	f.Add([]byte{0x03, binMagic, BinaryWireVersion, 0x63})                    // unknown kind
	f.Add([]byte{0x05, 0x37, 0xff, 0x81, 0x03, 0x01})                         // no magic: a gob stream's opening bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 16
		c := NewConnLimit(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard}, limit)
		fr, err := c.Recv()
		if err != nil {
			return // malformed input must error, not panic
		}
		if err := fr.Validate(); err != nil {
			t.Fatalf("Recv returned an invalid frame: %v", err)
		}
		// The frame's payload aliases the connection's scratch; copy it
		// out so the replays below can't invalidate it.
		fr = cloneFrame(fr)

		// Fix-point: what decoded must re-encode and decode to an equal
		// frame, on a fresh connection pair.
		var buf bytes.Buffer
		if err := NewConnLimit(&buf, limit).Send(fr); err != nil {
			t.Fatalf("re-encoding a decoded frame failed: %v", err)
		}
		back, err := NewConnLimit(&buf, limit).Recv()
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if !framesEqual(fr, back) {
			t.Fatalf("round trip changed the frame:\nin  %+v\nout %+v", fr, back)
		}

		// Pooled-path exercise: run the same frame through one persistent
		// connection several times. Each Recv returns its scratch buffer to
		// the pool and each Send reuses the encoder scratch, so a frame
		// corrupted by buffer recycling (a payload aliasing a recycled
		// buffer, stale bytes from a larger previous frame) would surface
		// as a decode error or a kind flip on the later iterations.
		var stream bytes.Buffer
		pc := NewConnLimit(&stream, limit)
		const rounds = 3
		for i := 0; i < rounds; i++ {
			if err := pc.Send(fr); err != nil {
				t.Fatalf("pooled send %d failed: %v", i, err)
			}
		}
		for i := 0; i < rounds; i++ {
			got, err := pc.Recv()
			if err != nil {
				t.Fatalf("pooled recv %d failed: %v", i, err)
			}
			if got.Kind != fr.Kind {
				t.Fatalf("pooled recv %d changed kind: %s -> %s", i, fr.Kind, got.Kind)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("pooled recv %d returned an invalid frame: %v", i, err)
			}
			if fr.Kind == KindExec && !bytes.Equal(got.Exec.Params, fr.Exec.Params) {
				t.Fatalf("pooled recv %d corrupted params: %x -> %x", i, fr.Exec.Params, got.Exec.Params)
			}
		}
	})
}
