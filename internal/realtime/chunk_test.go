package realtime

import (
	"testing"

	"rattrap/internal/core"
	"rattrap/internal/host"
	"rattrap/internal/offload"
	"rattrap/internal/workload"
)

// chunkExchange runs one delta-push request on an already-helloed
// connection: exec, NEED_CODE, chunk offer, chunk-need reply, code frame,
// result. It returns the negotiated need and the final result.
func chunkExchange(t *testing.T, c *offload.Conn, app workload.App, seq int, size host.Bytes) (offload.ChunkOffer, offload.ChunkNeed, offload.Result) {
	t.Helper()
	return chunkExchangeHashes(t, c, app, seq, size, offload.SyntheticManifest(app.Name(), size))
}

// chunkExchangeHashes is chunkExchange with an explicit offered hash list,
// letting tests send degenerate offers a real device never would.
func chunkExchangeHashes(t *testing.T, c *offload.Conn, app workload.App, seq int, size host.Bytes, hashes []uint64) (offload.ChunkOffer, offload.ChunkNeed, offload.Result) {
	t.Helper()
	task := app.NewTask(testRng(seq), seq)
	aid := offload.AID(app.Name(), size)
	if err := c.Send(offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
		AID: aid, App: task.App, Method: task.Method, Seq: task.Seq,
		Params: task.Params, ParamBytes: task.ParamBytes,
		FileBytes: task.FileBytes, RoundTrips: task.RoundTrips, InteractBytes: task.InteractBytes,
	}}); err != nil {
		t.Fatal(err)
	}
	f, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != offload.KindNeedCode {
		t.Fatalf("expected NEED_CODE, got %s", f.Kind)
	}
	offer := offload.ChunkOffer{
		AID: aid, App: app.Name(), Size: size, Seq: task.Seq,
		Hashes: hashes,
	}
	if err := c.Send(offload.ChunkOfferFrame(&offer)); err != nil {
		t.Fatal(err)
	}
	if f, err = c.Recv(); err != nil {
		t.Fatal(err)
	}
	need, err := offload.DecodeChunkNeed(f)
	if err != nil {
		t.Fatalf("expected chunk-need reply: %v (kind %s)", err, f.Kind)
	}
	if err := c.Send(offload.Frame{Kind: offload.KindCode, Code: &offload.CodePush{
		AID: aid, App: app.Name(), Size: size, Seq: task.Seq,
	}}); err != nil {
		t.Fatal(err)
	}
	if f, err = c.Recv(); err != nil {
		t.Fatal(err)
	}
	if f.Kind != offload.KindResult {
		t.Fatalf("expected result, got %s", f.Kind)
	}
	return offer, need, *f.Result
}

// TestServerChunkedDeltaPush drives the content-addressed delta push over
// a real connection: the first family member uploads every chunk, the
// second (same app, different code size) is told to send only its unique
// tail — under 30% of the full blob, the ISSUE's delta criterion.
func TestServerChunkedDeltaPush(t *testing.T) {
	app, _ := workload.ByName(workload.NameLinpack)
	_, ln := startServerOpts(t, Options{})
	_, c := helloOverWire(t, ln.Addr().String(), "delta-dev")

	size1 := 5 * host.MB
	offer1, need1, res1 := chunkExchange(t, c, app, 0, size1)
	if res1.Err != "" {
		t.Fatalf("first request failed: %+v", res1)
	}
	if !need1.Supported {
		t.Fatal("a platform with a warehouse declined chunk negotiation")
	}
	if got, want := len(need1.Missing), len(offer1.Hashes); got != want {
		t.Fatalf("cold store missing %d chunks, offered %d", got, want)
	}

	size2 := size1 + 512*host.KB
	offer2, need2, res2 := chunkExchange(t, c, app, 1, size2)
	if res2.Err != "" {
		t.Fatalf("family request failed: %+v", res2)
	}
	if !need2.Supported {
		t.Fatal("server declined the second negotiation")
	}
	delta := offload.DeltaBytes(offer2, need2.Missing)
	if ratio := float64(delta) / float64(size2); ratio >= 0.30 {
		t.Fatalf("family delta ratio %.2f, want < 0.30 (%d of %d bytes)", ratio, delta, size2)
	}
}

// TestServerDegenerateChunkOffer pins the review-found crash: an offer
// whose hash list cannot describe its size — empty Params (which the wire
// codec accepts) or a truncated manifest — must be answered
// Supported=false rather than reach the warehouse's chunk staging, and
// the full code push that follows still completes the request.
func TestServerDegenerateChunkOffer(t *testing.T) {
	app, _ := workload.ByName(workload.NameLinpack)
	_, ln := startServerOpts(t, Options{})
	_, c := helloOverWire(t, ln.Addr().String(), "degen-dev")

	// No hashes at all.
	size1 := 5 * host.MB
	_, need, res := chunkExchangeHashes(t, c, app, 0, size1, nil)
	if need.Supported {
		t.Fatal("server accepted an empty chunk offer")
	}
	if res.Err != "" || res.Output == "" {
		t.Fatalf("fallback after empty offer failed: %+v", res)
	}

	// A hash list too short for the offered size.
	size2 := size1 + 512*host.KB
	short := offload.SyntheticManifest(app.Name(), size2)[:1]
	_, need, res = chunkExchangeHashes(t, c, app, 1, size2, short)
	if need.Supported {
		t.Fatal("server accepted a truncated chunk offer")
	}
	if res.Err != "" || res.Output == "" {
		t.Fatalf("fallback after truncated offer failed: %+v", res)
	}
}

// TestServerChunkOfferFallback pins the downgrade path: a platform without
// an App Warehouse has nowhere to stage chunks, answers the offer
// Supported=false, and the device's full code push that follows still
// completes the request.
func TestServerChunkOfferFallback(t *testing.T) {
	app, _ := workload.ByName(workload.NameLinpack)
	_, ln := startServerCfg(t, core.DefaultConfig(core.KindRattrapWO), Options{})
	_, c := helloOverWire(t, ln.Addr().String(), "fallback-dev")

	_, need, res := chunkExchange(t, c, app, 0, app.CodeSize())
	if need.Supported {
		t.Fatal("server claimed chunk support without a warehouse")
	}
	if len(need.Missing) != 0 {
		t.Fatalf("unsupported reply carries %d missing chunks", len(need.Missing))
	}
	if res.Err != "" || res.Output == "" {
		t.Fatalf("fallback request failed: %+v", res)
	}
}
