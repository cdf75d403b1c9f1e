package realtime

import (
	"testing"

	"rattrap/internal/core"
	"rattrap/internal/host"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// chunkExchange runs one delta-push request on an already-helloed
// connection: exec, NEED_CODE, chunk offer, chunk-need reply, code frame,
// result. It returns the offer, the negotiated need and the final result.
func chunkExchange(t *testing.T, d *vDev, seq int, size host.Bytes) (offload.ChunkOffer, offload.ChunkNeed, offload.Result) {
	return chunkExchangeHashes(t, d, seq, size, offload.SyntheticManifest(linpack, size))
}

// chunkExchangeHashes is chunkExchange with an explicit offered hash list,
// letting tests send degenerate offers a real device never would.
func chunkExchangeHashes(t *testing.T, d *vDev, seq int, size host.Bytes, hashes []uint64) (offload.ChunkOffer, offload.ChunkNeed, offload.Result) {
	aid := offload.AID(linpack, size)
	exec := execFrame(linpack, seq)
	exec.Exec.AID = aid
	offer := offload.ChunkOffer{AID: aid, App: linpack, Size: size, Seq: seq, Hashes: hashes}
	expect := func(want offload.Kind) offload.Frame {
		f, err := d.recv()
		if err != nil || f.Kind != want {
			t.Errorf("expected %s, got %s / %v", want, f.Kind, err)
		}
		return f
	}
	d.send(exec)
	expect(offload.KindNeedCode)
	d.send(offload.ChunkOfferFrame(&offer))
	need, err := offload.DecodeChunkNeed(expect(offload.KindChunkNeed))
	if err != nil {
		t.Errorf("chunk-need reply: %v", err)
	}
	d.send(offload.Frame{Kind: offload.KindCode, Code: &offload.CodePush{AID: aid, App: linpack, Size: size, Seq: seq}})
	var res offload.Result
	if f := expect(offload.KindResult); f.Result != nil {
		res = *f.Result
	}
	return offer, need, res
}

// chunkDevice runs fn as one device on a fresh virtual server of kind.
func chunkDevice(t *testing.T, kind core.Kind, fn func(d *vDev)) {
	s := newVServer(t, 1, core.DefaultConfig(kind), 1)
	s.at(0, "dev", func(p *sim.Proc) {
		d := s.connect(p, "delta-dev")
		defer d.hangUp()
		fn(d)
	})
	s.run()
}

// TestServerChunkedDeltaPush drives the content-addressed delta push over
// the wire protocol: the first family member uploads every chunk, the
// second (same app, different code size) is told to send only its unique
// tail — under 30% of the full blob.
func TestServerChunkedDeltaPush(t *testing.T) {
	chunkDevice(t, core.KindRattrap, func(d *vDev) {
		size1 := 5 * host.MB
		offer1, need1, res1 := chunkExchange(t, d, 0, size1)
		if res1.Err != "" {
			t.Errorf("first request failed: %+v", res1)
		}
		if !need1.Supported {
			t.Error("a platform with a warehouse declined chunk negotiation")
		}
		if got, want := len(need1.Missing), len(offer1.Hashes); got != want {
			t.Errorf("cold store missing %d chunks, offered %d", got, want)
		}

		size2 := size1 + 512*host.KB
		offer2, need2, res2 := chunkExchange(t, d, 1, size2)
		if res2.Err != "" {
			t.Errorf("family request failed: %+v", res2)
		}
		if !need2.Supported {
			t.Error("server declined the second negotiation")
		}
		delta := offload.DeltaBytes(offer2, need2.Missing)
		if ratio := float64(delta) / float64(size2); ratio >= 0.30 {
			t.Errorf("family delta ratio %.2f, want < 0.30 (%d of %d bytes)", ratio, delta, size2)
		}
	})
}

// TestServerDegenerateChunkOffer pins the review-found crash: an offer
// whose hash list cannot describe its size — empty Params (which the wire
// codec accepts) or a truncated manifest — must be answered
// Supported=false rather than reach the warehouse's chunk staging, and
// the full code push that follows still completes the request.
func TestServerDegenerateChunkOffer(t *testing.T) {
	chunkDevice(t, core.KindRattrap, func(d *vDev) {
		// No hashes at all.
		size1 := 5 * host.MB
		_, need, res := chunkExchangeHashes(t, d, 0, size1, nil)
		if need.Supported {
			t.Error("server accepted an empty chunk offer")
		}
		if res.Err != "" || res.Output == "" {
			t.Errorf("fallback after empty offer failed: %+v", res)
		}

		// A hash list too short for the offered size.
		size2 := size1 + 512*host.KB
		short := offload.SyntheticManifest(linpack, size2)[:1]
		_, need, res = chunkExchangeHashes(t, d, 1, size2, short)
		if need.Supported {
			t.Error("server accepted a truncated chunk offer")
		}
		if res.Err != "" || res.Output == "" {
			t.Errorf("fallback after truncated offer failed: %+v", res)
		}
	})
}

// TestServerChunkOfferFallback pins the downgrade path: a platform without
// an App Warehouse has nowhere to stage chunks, answers the offer
// Supported=false, and the device's full code push that follows still
// completes the request.
func TestServerChunkOfferFallback(t *testing.T) {
	app, _ := workload.ByName(linpack)
	chunkDevice(t, core.KindRattrapWO, func(d *vDev) {
		_, need, res := chunkExchange(t, d, 0, app.CodeSize())
		if need.Supported {
			t.Error("server claimed chunk support without a warehouse")
		}
		if len(need.Missing) != 0 {
			t.Errorf("unsupported reply carries %d missing chunks", len(need.Missing))
		}
		if res.Err != "" || res.Output == "" {
			t.Errorf("fallback request failed: %+v", res)
		}
	})
}
