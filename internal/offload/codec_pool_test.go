package offload

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"rattrap/internal/host"
)

// TestFrameEncodeZeroAlloc gates the pooled wire path: once the
// connection's scratch buffers are sized, encoding a frame must not touch
// the heap.
func TestFrameEncodeZeroAlloc(t *testing.T) {
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), io.Discard})
	exec := &ExecRequest{
		DeviceID: "phone-1", AID: "abc", App: "ChessGame", Method: "bestMove",
		Seq: 3, Params: []byte{1, 2, 3}, ParamBytes: 122 * host.KB,
	}
	f := Frame{Kind: KindExec, Exec: exec}
	// Warm-up: the first Sends grow the scratch buffers and may allocate.
	for i := 0; i < 4; i++ {
		if err := c.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		exec.Seq++
		if err := c.Send(f); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm Send allocates %.1f times per frame, want 0", avg)
	}
}

// TestCodecPersistentStream pushes many frames of every kind through one
// connection in both directions. Sender and receiver must stay
// frame-aligned for the stream's whole life, and recycled pool buffers
// must never leak one frame's bytes into another's decode.
func TestCodecPersistentStream(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	for i := 0; i < 100; i++ {
		frames := []Frame{
			{Kind: KindHello, Hello: &Hello{DeviceID: fmt.Sprintf("dev-%d", i)}},
			{Kind: KindExec, Exec: &ExecRequest{
				DeviceID: fmt.Sprintf("dev-%d", i), AID: "abc", App: "Linpack",
				Seq: i, Params: bytes.Repeat([]byte{byte(i)}, i%97),
			}},
			{Kind: KindNeedCode, NeedCode: &NeedCode{Seq: i, AID: "abc"}},
			{Kind: KindCode, Code: &CodePush{AID: "abc", App: "Linpack", Size: host.Bytes(i), Seq: i}},
			{Kind: KindResult, Result: &Result{Output: fmt.Sprintf("out-%d", i), Seq: i}},
		}
		for _, f := range frames {
			if err := c.Send(f); err != nil {
				t.Fatalf("frame %d %s: send: %v", i, f.Kind, err)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("frame %d %s: recv: %v", i, f.Kind, err)
			}
			if got.Kind != f.Kind {
				t.Fatalf("frame %d: kind %s -> %s", i, f.Kind, got.Kind)
			}
			switch f.Kind {
			case KindExec:
				if got.Exec.Seq != i || !bytes.Equal(got.Exec.Params, f.Exec.Params) {
					t.Fatalf("frame %d: exec corrupted: %+v", i, got.Exec)
				}
			case KindNeedCode:
				if got.NeedCode == nil || got.NeedCode.Seq != i {
					t.Fatalf("frame %d: needcode payload lost: %+v", i, got.NeedCode)
				}
			case KindResult:
				if got.Result.Seq != i || got.Result.Output != f.Result.Output {
					t.Fatalf("frame %d: result corrupted: %+v", i, got.Result)
				}
			}
		}
	}
}

// TestCodecPoisonedAfterError: a Conn that returned a codec error must
// refuse further use on that side — the two ends may no longer agree on
// where the next frame starts.
func TestCodecPoisonedAfterError(t *testing.T) {
	t.Run("send", func(t *testing.T) {
		var buf bytes.Buffer
		c := NewConnLimit(&buf, 256)
		if err := c.Send(Frame{Kind: KindExec, Exec: &ExecRequest{Params: make([]byte, 4096)}}); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
		if err := c.Send(Frame{Kind: KindHello, Hello: &Hello{DeviceID: "d"}}); err == nil {
			t.Fatal("send after poisoning succeeded")
		}
	})
	t.Run("recv", func(t *testing.T) {
		buf := bytes.NewBuffer([]byte{0x03, 0xff, 0xff, 0xff, 0x01, 0x00})
		c := NewConn(buf)
		if _, err := c.Recv(); err == nil {
			t.Fatal("garbage frame decoded")
		}
		if _, err := c.Recv(); err == nil || errors.Is(err, io.EOF) {
			t.Fatal("recv after poisoning must fail with a poisoned-connection error")
		}
	})
}

// TestCodecCleanEOFNotPoisoned: io.EOF at a frame boundary is the normal
// way a stream ends; it must not poison the connection (a caller may
// legitimately poll again, e.g. after a timeout-driven retry).
func TestCodecCleanEOFNotPoisoned(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	if err := c.Send(Frame{Kind: KindHello, Hello: &Hello{DeviceID: "d"}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatalf("recv after clean EOF: %v", err)
	}
	if got.Hello.DeviceID != "d" {
		t.Fatalf("frame corrupted after clean EOF: %+v", got)
	}
}
