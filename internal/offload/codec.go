package offload

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The real-time wire protocol used by cmd/rattrapd and cmd/rattrap-client:
// length-prefixed messages over a stream. The simulated path models the
// same exchange with netsim transfer sizes; the message *types* are shared
// so both paths speak the identical protocol.
//
// Each frame is one uvarint byte length followed by that many payload
// bytes in the flat binary layout of binary.go — the only payload codec.
// The explicit length prefix exists so the receiver can reject an oversize
// frame *before* allocating for it: anything above the connection's frame
// limit is refused with ErrFrameTooLarge at the cost of one uvarint read.
//
// # Pooled wire path
//
// The codec is allocation-lean on the per-frame hot path:
//
//   - The encode scratch buffer (sendBuf) lives on the Conn and is Reset
//     between frames; a warm Send performs zero heap allocations (gated by
//     TestFrameEncodeZeroAlloc).
//   - Recv payload buffers come from a package-level sync.Pool shared by
//     all connections. Decode is zero-copy (see binary.go), so the buffer
//     stays with the Conn until the next Recv or a TakeRecvBuf.
//
// A Conn whose Send or Recv returned an error is poisoned and must be
// dropped, not reused: after a failed write or a rejected frame the two
// sides no longer agree on where the next frame starts. Every caller in
// this repo already treats codec errors as connection-fatal.

// DefaultMaxFrame bounds a single frame's encoded size. Code pushes carry
// metadata (the blob itself is modeled by size), and Params payloads are
// small; 4 MiB leaves two orders of magnitude of headroom.
const DefaultMaxFrame = 4 << 20

// ErrFrameTooLarge reports a frame whose declared size exceeds the
// connection's limit. Matches with errors.Is.
var ErrFrameTooLarge = errors.New("offload: frame exceeds size limit")

// Kind discriminates frames.
type Kind string

// Frame kinds.
const (
	KindHello    Kind = "hello"
	KindExec     Kind = "exec"
	KindNeedCode Kind = "needcode"
	KindCode     Kind = "code"
	KindResult   Kind = "result"

	// Chunked delta-push negotiation (PushCode's content-addressed fast
	// path). Both ride the Exec carrier — see the wire-carrier notes in
	// chunk.go.
	KindChunkOffer Kind = "chunkoffer"
	KindChunkNeed  Kind = "chunkneed"
)

// Hello opens a device connection.
type Hello struct {
	DeviceID string
}

// NeedCode asks the device to transfer mobile code. Seq identifies which
// in-flight request the ask belongs to, so pipelined clients can route it;
// serial clients may ignore the payload (and old-style NEED_CODE frames
// without one are still valid).
type NeedCode struct {
	Seq int
	AID string
}

// Frame is one protocol message.
type Frame struct {
	Kind     Kind
	Hello    *Hello
	Exec     *ExecRequest
	NeedCode *NeedCode
	Code     *CodePush
	Result   *Result
}

// Validate checks that the frame's payload matches its kind.
func (f *Frame) Validate() error {
	switch f.Kind {
	case KindHello:
		if f.Hello == nil {
			return fmt.Errorf("offload: hello frame without payload")
		}
	case KindExec:
		if f.Exec == nil {
			return fmt.Errorf("offload: exec frame without payload")
		}
	case KindChunkOffer, KindChunkNeed:
		if f.Exec == nil {
			return fmt.Errorf("offload: %s frame without payload", f.Kind)
		}
	case KindCode:
		if f.Code == nil {
			return fmt.Errorf("offload: code frame without payload")
		}
	case KindResult:
		if f.Result == nil {
			return fmt.Errorf("offload: result frame without payload")
		}
	case KindNeedCode:
		// Payload optional: it routes the ask under pipelining.
	default:
		return fmt.Errorf("offload: unknown frame kind %q", f.Kind)
	}
	return nil
}

// recvBufPool recycles Recv payload scratch buffers across all
// connections. It stores *[]byte (not []byte) so Put does not box a fresh
// slice header per call. Buffers are capacity-capped on return so a single
// oversized frame does not pin its worst-case allocation forever.
var recvBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// maxPooledBuf caps the capacity of buffers returned to recvBufPool.
const maxPooledBuf = 64 << 10

// Conn frames protocol messages over a byte stream. Conn methods are not
// safe for concurrent use: pipelined callers must serialize all Sends (one
// goroutine, or one lock) and funnel all Recvs through one reader goroutine
// (the two directions are independent).
type Conn struct {
	r        *bufio.Reader
	w        io.Writer
	maxFrame int

	// Send-side state: the payload scratch buffer and the varint scratch.
	sendBuf    bytes.Buffer
	lenBuf     [binary.MaxVarintLen64]byte
	sendBroken bool

	// wbuf assembles the length prefix and payload of one outgoing frame
	// into a single contiguous Write — two small writes per frame double
	// the per-frame syscall bill. pend holds framed bytes awaiting an
	// explicit FlushSend when coalescing is on (see CoalesceSends).
	wbuf     []byte
	pend     []byte
	coalesce bool

	// Receive state: the buffer backing the last frame's byte views (nil
	// once taken via TakeRecvBuf), the scratch payload structs the decoded
	// frame points into, and the string intern table.
	recvBroken bool
	held       *[]byte
	intern     map[string]string
	recvHello  Hello
	recvExec   ExecRequest
	recvNeed   NeedCode
	recvCode   CodePush
	recvResult Result
}

// NewConn wraps a stream (e.g. a net.Conn) in the protocol codec with the
// default frame-size limit.
func NewConn(rw io.ReadWriter) *Conn { return NewConnLimit(rw, DefaultMaxFrame) }

// NewConnLimit wraps a stream with an explicit frame-size limit.
// maxFrame <= 0 selects DefaultMaxFrame.
func NewConnLimit(rw io.ReadWriter, maxFrame int) *Conn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Conn{r: bufio.NewReader(rw), w: rw, maxFrame: maxFrame}
}

// Wire, its constants and NewConnWire are what is left of codec selection:
// benchmark/adapter.go names them and is frozen for non-benchmark PRs. The
// argument is ignored. Remove with the next benchmark PR.
type Wire string

const (
	WireAuto   Wire = "auto"
	WireBinary Wire = "binary"
)

func NewConnWire(rw io.ReadWriter, _ Wire) *Conn { return NewConn(rw) }

// TakeRecvBuf transfers ownership of the read buffer backing the most
// recently received frame's byte views out of the connection's recycle
// path. Without it the views are invalidated by the next Recv; see
// RecvBuf. Returns the zero RecvBuf when there is nothing to hand over
// (no frame received yet, or the buffer was already taken).
func (c *Conn) TakeRecvBuf() RecvBuf {
	b := RecvBuf{bp: c.held}
	c.held = nil
	return b
}

// Send writes one frame. After a non-nil error the Conn's send side is
// poisoned and the connection must be dropped.
func (c *Conn) Send(f Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if c.sendBroken {
		return errors.New("offload: send on poisoned connection")
	}
	c.sendBuf.Reset()
	if err := c.encodeBinary(&f); err != nil {
		// Nothing was written to the stream; the frame was merely
		// unencodable. State is still consistent, but poison anyway:
		// callers treat codec errors as connection-fatal.
		c.sendBroken = true
		return err
	}
	return c.flushSendBuf()
}

// SendResult writes a result frame without going through a Frame value.
// It exists for the server's hot reply path: building a Frame there would
// force &Result to escape per reply. Same poisoning rules as Send.
func (c *Conn) SendResult(r *Result) error {
	if c.sendBroken {
		return errors.New("offload: send on poisoned connection")
	}
	c.sendBuf.Reset()
	c.putHeader(binKindResult, 0)
	c.putResult(r)
	return c.flushSendBuf()
}

// sendCoalesceLimit bounds how much framed data a coalescing connection
// holds in memory before forcing a flush mid-batch.
const sendCoalesceLimit = 32 << 10

// CoalesceSends switches the send side to explicit flushing: framed
// messages accumulate in memory and reach the stream only on FlushSend
// (or when the pending buffer hits sendCoalesceLimit). A reply path whose
// senders queue for it can batch every result that is already waiting into
// one syscall. Sends must be serialized, and the senders own the flush
// schedule — a frame is not on the wire until FlushSend returns.
func (c *Conn) CoalesceSends() { c.coalesce = true }

// FlushSend writes out all frames buffered by a coalescing connection.
// A no-op on write-through connections and when nothing is pending.
func (c *Conn) FlushSend() error {
	if len(c.pend) == 0 {
		return nil
	}
	_, err := c.w.Write(c.pend)
	c.pend = c.pend[:0]
	if err != nil {
		c.sendBroken = true
	}
	return err
}

// flushSendBuf frames the encoded payload in sendBuf onto the stream —
// prefix and payload as one Write — or parks it in pend when coalescing.
func (c *Conn) flushSendBuf() error {
	if c.sendBuf.Len() > c.maxFrame {
		c.sendBroken = true
		return fmt.Errorf("%w: encoding %d bytes, limit %d", ErrFrameTooLarge, c.sendBuf.Len(), c.maxFrame)
	}
	n := binary.PutUvarint(c.lenBuf[:], uint64(c.sendBuf.Len()))
	if c.coalesce {
		c.pend = append(c.pend, c.lenBuf[:n]...)
		c.pend = append(c.pend, c.sendBuf.Bytes()...)
		if len(c.pend) >= sendCoalesceLimit {
			return c.FlushSend()
		}
		return nil
	}
	c.wbuf = append(c.wbuf[:0], c.lenBuf[:n]...)
	c.wbuf = append(c.wbuf, c.sendBuf.Bytes()...)
	if _, err := c.w.Write(c.wbuf); err != nil {
		c.sendBroken = true
		return err
	}
	return nil
}

// Recv reads one frame. A frame whose declared size exceeds the
// connection's limit is rejected with ErrFrameTooLarge before any
// payload-sized allocation happens; a payload that does not open with the
// wire magic and a version this build speaks is rejected with a typed
// *WireVersionError. After a non-nil error (other than a clean io.EOF at
// a frame boundary) the Conn's receive side is poisoned and the
// connection must be dropped.
//
// Decode is zero-copy: the returned payload structs and byte views are
// valid only until the next Recv (see TakeRecvBuf).
func (c *Conn) Recv() (Frame, error) {
	if c.recvBroken {
		return Frame{}, errors.New("offload: recv on poisoned connection")
	}
	size, err := binary.ReadUvarint(c.r)
	if err != nil {
		return Frame{}, err
	}
	if size > uint64(c.maxFrame) {
		c.recvBroken = true
		return Frame{}, fmt.Errorf("%w: declared %d bytes, limit %d", ErrFrameTooLarge, size, c.maxFrame)
	}
	// Buffer acquisition: reuse the connection's held buffer when its
	// views were not taken (they are invalidated now, per contract), else
	// draw from the shared pool.
	bp := c.held
	c.held = nil
	if bp == nil {
		bp = recvBufPool.Get().(*[]byte)
	}
	if cap(*bp) < int(size) {
		*bp = make([]byte, size)
	}
	buf := (*bp)[:size]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, c.failRecv(bp, err)
	}
	f, err := c.decodeBinary(buf)
	if err != nil {
		return Frame{}, c.failRecv(bp, err)
	}
	// Keep the buffer: the frame's byte views alias it. It is recycled on
	// the next Recv unless the caller takes it.
	c.held = bp
	if err := f.Validate(); err != nil {
		c.recvBroken = true
		return Frame{}, err
	}
	return f, nil
}

// failRecv recycles a rejected frame's buffer and poisons the receive side.
func (c *Conn) failRecv(bp *[]byte, err error) error {
	RecvBuf{bp: bp}.Release()
	c.recvBroken = true
	return err
}
