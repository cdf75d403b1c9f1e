package offload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"rattrap/internal/host"
)

// framesEqual compares two frames semantically: field-wise on the payload
// structs, with byte slices compared by content (nil and empty are equal:
// a zero-length byte string decodes as nil) and codec-level fields (the
// hello's advertised wire version) ignored.
func framesEqual(a, b Frame) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch {
	case (a.Hello == nil) != (b.Hello == nil):
		return false
	case a.Hello != nil && a.Hello.DeviceID != b.Hello.DeviceID:
		return false
	}
	switch {
	case (a.Exec == nil) != (b.Exec == nil):
		return false
	case a.Exec != nil:
		x, y := a.Exec, b.Exec
		if x.DeviceID != y.DeviceID || x.AID != y.AID || x.App != y.App ||
			x.Method != y.Method || x.Seq != y.Seq || !bytes.Equal(x.Params, y.Params) ||
			x.ParamBytes != y.ParamBytes || x.FileBytes != y.FileBytes ||
			x.RoundTrips != y.RoundTrips || x.InteractBytes != y.InteractBytes {
			return false
		}
	}
	switch {
	case (a.NeedCode == nil) != (b.NeedCode == nil):
		return false
	case a.NeedCode != nil && *a.NeedCode != *b.NeedCode:
		return false
	}
	switch {
	case (a.Code == nil) != (b.Code == nil):
		return false
	case a.Code != nil && *a.Code != *b.Code:
		return false
	}
	switch {
	case (a.Result == nil) != (b.Result == nil):
		return false
	case a.Result != nil && *a.Result != *b.Result:
		return false
	}
	return true
}

// cloneFrame deep-copies a frame out of the connection-owned scratch Recv
// returns, so it survives the connection's next Recv.
func cloneFrame(f Frame) Frame {
	c := Frame{Kind: f.Kind}
	if f.Hello != nil {
		h := *f.Hello
		c.Hello = &h
	}
	if f.Exec != nil {
		e := *f.Exec
		e.Params = append([]byte(nil), e.Params...)
		if len(e.Params) == 0 {
			e.Params = nil
		}
		c.Exec = &e
	}
	if f.NeedCode != nil {
		n := *f.NeedCode
		c.NeedCode = &n
	}
	if f.Code != nil {
		p := *f.Code
		c.Code = &p
	}
	if f.Result != nil {
		r := *f.Result
		c.Result = &r
	}
	return c
}

// binaryTestFrames covers every kind, negative scalars (zigzag), empty
// and non-empty byte payloads, and the optional needcode payload.
func binaryTestFrames() []Frame {
	return []Frame{
		{Kind: KindHello, Hello: &Hello{DeviceID: "phone-1"}},
		{Kind: KindExec, Exec: &ExecRequest{
			DeviceID: "phone-1", AID: "a1b2c3d4", App: "Linpack", Method: "solve",
			Seq: 7, Params: []byte{0x01, 0x02, 0x03, 0xfe}, ParamBytes: 500,
			FileBytes: 122 * host.KB, RoundTrips: 3, InteractBytes: 64,
		}},
		{Kind: KindExec, Exec: &ExecRequest{
			DeviceID: "d", AID: "x", App: "ChessGame", Method: "bestMove",
			Seq: -9, ParamBytes: -1, FileBytes: -(1 << 40), RoundTrips: -2, InteractBytes: -64,
		}},
		{Kind: KindNeedCode},
		{Kind: KindNeedCode, NeedCode: &NeedCode{Seq: 12, AID: "a1b2c3d4"}},
		{Kind: KindNeedCode, NeedCode: &NeedCode{}},
		{Kind: KindCode, Code: &CodePush{AID: "a1b2c3d4", App: "Linpack", Size: 152 * host.KB, Seq: 7}},
		{Kind: KindResult, Result: &Result{Output: "n=64 residual=1.08e-13", ResultBytes: 550, Seq: 7}},
		{Kind: KindResult, Result: &Result{Err: "queue full", Code: CodeOverloaded, RetryAfterMs: 450, Seq: -8}},
		{Kind: KindResult, Result: &Result{}},
	}
}

// TestBinaryRoundTrip sends every test frame over the codec and checks
// semantic equality after decode.
func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sender := NewConn(&buf)
	receiver := NewConn(&buf)
	for i, f := range binaryTestFrames() {
		if err := sender.Send(f); err != nil {
			t.Fatalf("frame %d (%s): send: %v", i, f.Kind, err)
		}
		got, err := receiver.Recv()
		if err != nil {
			t.Fatalf("frame %d (%s): recv: %v", i, f.Kind, err)
		}
		if !framesEqual(f, got) {
			t.Fatalf("frame %d (%s): round trip mismatch:\nsent %+v\ngot  %+v", i, f.Kind, f, got)
		}
	}
}

// TestBinaryHelloAdvertisesVersion: a hello carries the spoken wire
// version explicitly, after the device ID, and decodes.
func TestBinaryHelloAdvertisesVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := NewConn(&buf).Send(Frame{Kind: KindHello, Hello: &Hello{DeviceID: "d"}}); err != nil {
		t.Fatal(err)
	}
	if b := buf.Bytes(); b[len(b)-1] != BinaryWireVersion {
		t.Fatalf("binary hello ends in % x, want the version %d", b, BinaryWireVersion)
	}
	got, err := NewConn(&buf).Recv()
	if err != nil || got.Hello.DeviceID != "d" {
		t.Fatalf("hello decoded as %+v, %v", got.Hello, err)
	}
}

// repeatWriter feeds everything written to it back as an endless repeated
// read stream once switched to replay mode.
type repeatReader struct {
	data []byte
	pos  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if r.pos >= len(r.data) {
		r.pos = 0
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// TestBinaryZeroAlloc gates the tentpole: a warm binary connection must
// encode (Send, SendResult) and decode (Recv) exec and result frames with
// zero heap allocations per frame.
func TestBinaryZeroAlloc(t *testing.T) {
	exec := &ExecRequest{
		DeviceID: "phone-1", AID: "a1b2c3d4", App: "Linpack", Method: "solve",
		Seq: 3, Params: []byte{1, 2, 3, 4, 5, 6, 7, 8}, ParamBytes: 500,
	}
	f := Frame{Kind: KindExec, Exec: exec}

	t.Run("send", func(t *testing.T) {
		c := NewConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(nil), io.Discard})
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
			t.Fatalf("warm binary Send allocates %.1f times per frame, want 0", avg)
		}
	})

	t.Run("sendResult", func(t *testing.T) {
		c := NewConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(nil), io.Discard})
		r := Result{Output: "n=64 residual=1.08e-13", ResultBytes: 550, Seq: 9}
		for i := 0; i < 4; i++ {
			if err := c.SendResult(&r); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(200, func() {
			r.Seq++
			if err := c.SendResult(&r); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("warm binary SendResult allocates %.1f times per frame, want 0", avg)
		}
	})

	t.Run("recv", func(t *testing.T) {
		var enc bytes.Buffer
		if err := NewConn(&enc).Send(f); err != nil {
			t.Fatal(err)
		}
		c := NewConn(struct {
			io.Reader
			io.Writer
		}{&repeatReader{data: enc.Bytes()}, io.Discard})
		// Warm-up interns the strings and seats the held buffer.
		for i := 0; i < 4; i++ {
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(200, func() {
			got, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got.Exec.Seq != exec.Seq {
				t.Fatalf("seq %d, want %d", got.Exec.Seq, exec.Seq)
			}
		}); avg != 0 {
			t.Fatalf("warm binary Recv allocates %.1f times per frame, want 0", avg)
		}
	})
}

// TestUnknownWireVersion: a frame advertising a future wire version, or
// not opening with the wire magic at all (what a pre-binary gob client
// sends, or an empty payload), yields a typed *WireVersionError — Version
// carries the advertised byte, 0 for "no magic" — and poisons the
// receive side.
func TestUnknownWireVersion(t *testing.T) {
	cases := map[string]struct {
		payload []byte
		version byte
	}{
		"future version": {[]byte{binMagic, 0x7e, binKindHello, 0x00, 0x01, 'd', 0x7e}, 0x7e},
		"version only":   {[]byte{binMagic, 0x7e}, 0x7e},
		"gob opening":    {[]byte{0x37, 0xff, 0x81, 0x03, 0x01, 0x01, 0x05, 'F', 'r', 'a', 'm', 'e'}, 0},
		"other magic":    {[]byte{0xB2, BinaryWireVersion, binKindHello, 0x00}, 0},
		"empty payload":  {nil, 0},
	}
	for name, tc := range cases {
		var buf bytes.Buffer
		var lenBuf [binary.MaxVarintLen64]byte
		buf.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(tc.payload)))])
		buf.Write(tc.payload)

		c := NewConn(&buf)
		_, err := c.Recv()
		var wve *WireVersionError
		if !errors.As(err, &wve) {
			t.Errorf("%s: err = %v, want *WireVersionError", name, err)
			continue
		}
		if wve.Version != tc.version {
			t.Errorf("%s: WireVersionError.Version = %#x, want %#x", name, wve.Version, tc.version)
		}
		if _, err := c.Recv(); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: recv side not poisoned after version error", name)
		}
	}
}

// TestBinaryMalformed: truncated varints, overrunning byte strings,
// unknown kinds, and trailing garbage must all error without panicking,
// and must poison the receive side like any other codec error.
func TestBinaryMalformed(t *testing.T) {
	frame := func(payload []byte) *bytes.Buffer {
		var buf bytes.Buffer
		var lenBuf [binary.MaxVarintLen64]byte
		buf.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(payload)))])
		buf.Write(payload)
		return &buf
	}
	cases := map[string][]byte{
		"short header":   {binMagic, BinaryWireVersion, binKindHello},
		"unknown kind":   {binMagic, BinaryWireVersion, 0x63, 0x00},
		"zero kind":      {binMagic, BinaryWireVersion, 0x00, 0x00},
		"overrun string": {binMagic, BinaryWireVersion, binKindHello, 0x00, 0x7f, 'd'},
		"truncated int":  {binMagic, BinaryWireVersion, binKindHello, 0x00, 0x01, 'd', 0xff},
		"trailing bytes": {binMagic, BinaryWireVersion, binKindHello, 0x00, 0x01, 'd', 0x01, 0xaa},
	}
	for name, payload := range cases {
		c := NewConn(frame(payload))
		if _, err := c.Recv(); err == nil {
			t.Errorf("%s: decoded without error", name)
			continue
		}
		if _, err := c.Recv(); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: recv side not poisoned after decode error", name)
		}
	}
}

// TestBinaryOversizeRejectedBeforeAlloc: the length-prefixed framing
// rejects an oversize declared size on the prefix alone — before any
// payload-sized allocation (the cap check precedes the buffer draw in
// Recv). Per-frame allocations are separately pinned to zero by
// TestBinaryZeroAlloc.
func TestBinaryOversizeRejectedBeforeAlloc(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [binary.MaxVarintLen64]byte
	// Declare a 1 TiB frame; write only the first two header bytes.
	buf.Write(lenBuf[:binary.PutUvarint(lenBuf[:], 1<<40)])
	buf.Write([]byte{binMagic, BinaryWireVersion})

	c := NewConnLimit(&buf, 1<<10)
	if _, err := c.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestTakeRecvBuf demonstrates the aliasing hazard and its fix. Decoded
// byte views alias the connection's read buffer, which is reused by the
// next Recv: without TakeRecvBuf the first frame's params are clobbered
// (deterministically — the held buffer is recycled in place); with it
// they survive until Release.
func TestTakeRecvBuf(t *testing.T) {
	encode := func(seqs ...byte) *bytes.Buffer {
		var buf bytes.Buffer
		c := NewConn(&buf)
		for _, s := range seqs {
			err := c.Send(Frame{Kind: KindExec, Exec: &ExecRequest{
				App: "Linpack", Params: bytes.Repeat([]byte{s}, 32), Seq: int(s),
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
		return &buf
	}

	t.Run("hazard", func(t *testing.T) {
		c := NewConn(encode(1, 2))
		f1, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		view := f1.Exec.Params
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(view, bytes.Repeat([]byte{1}, 32)) {
			t.Fatal("expected the un-taken view to be clobbered by the next Recv; " +
				"if buffer reuse changed, update the TakeRecvBuf contract docs")
		}
	})

	t.Run("take", func(t *testing.T) {
		c := NewConn(encode(1, 2))
		f1, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		view := f1.Exec.Params
		pin := c.TakeRecvBuf()
		defer pin.Release()
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(view, bytes.Repeat([]byte{1}, 32)) {
			t.Fatalf("taken view corrupted: %x", view)
		}
	})

	t.Run("zero-value release", func(t *testing.T) {
		var pin RecvBuf
		pin.Release() // must be a no-op
		c := NewConn(encode(1))
		if pin := c.TakeRecvBuf(); pin.bp != nil {
			t.Fatal("connection handed out a buffer before any Recv")
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		c.TakeRecvBuf().Release()
		if pin := c.TakeRecvBuf(); pin.bp != nil {
			t.Fatal("connection handed out the same buffer twice")
		}
	})
}
