package offload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

// TestCodecCapsDecodedFrameSize: a frame whose length prefix declares
// more than the connection limit must be rejected with ErrFrameTooLarge
// before any payload-sized allocation, not fed to the decoder.
func TestCodecCapsDecodedFrameSize(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [binary.MaxVarintLen64]byte
	// Declare a 1 TiB frame; write no payload at all. The cap check must
	// fire on the prefix alone.
	n := binary.PutUvarint(lenBuf[:], 1<<40)
	buf.Write(lenBuf[:n])
	c := NewConn(&buf)
	_, err := c.Recv()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestCodecSendRefusesOversizeFrame(t *testing.T) {
	var buf bytes.Buffer
	c := NewConnLimit(&buf, 1024)
	err := c.Send(Frame{Kind: KindExec, Exec: &ExecRequest{
		AID: "a", App: "x", Params: make([]byte, 4096),
	}})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize send wrote %d bytes to the stream", buf.Len())
	}
}

func TestCodecCustomLimitRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConnLimit(&buf, 64*1024)
	want := Frame{Kind: KindExec, Exec: &ExecRequest{
		AID: "a", App: "x", Params: make([]byte, 8192), ParamBytes: 8192,
	}}
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Exec.Params) != 8192 {
		t.Fatalf("params round trip: %d bytes", len(got.Exec.Params))
	}
}

func TestCodecTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(Frame{Kind: KindHello, Hello: &Hello{DeviceID: "d"}}); err != nil {
		t.Fatal(err)
	}
	// Chop the stream mid-payload: Recv must fail cleanly, not block or
	// return a half frame.
	trunc := bytes.NewBuffer(buf.Bytes()[:buf.Len()-3])
	tc := NewConnLimit(struct {
		io.Reader
		io.Writer
	}{trunc, io.Discard}, 0)
	if _, err := tc.Recv(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
}

func TestCodecGarbagePayloadErrors(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], 5)
	buf.Write(lenBuf[:n])
	buf.Write([]byte{0xff, 0x00, 0xaa, 0x12, 0x7f})
	c := NewConn(&buf)
	if _, err := c.Recv(); err == nil {
		t.Fatal("garbage payload decoded without error")
	}
}

func TestResultErrorCodes(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(Frame{Kind: KindResult, Result: &Result{
		Err: "queue full", Code: CodeOverloaded, RetryAfterMs: 450,
	}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Code != CodeOverloaded || got.Result.RetryAfter() != 450*time.Millisecond {
		t.Fatalf("result codes round trip: %+v", got.Result)
	}
}

func TestOverloadedErrorMatches(t *testing.T) {
	err := error(&OverloadedError{QueueDepth: 7, RetryAfter: 200 * time.Millisecond})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("OverloadedError must match ErrOverloaded")
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.QueueDepth != 7 {
		t.Fatalf("errors.As failed: %v", err)
	}
}
