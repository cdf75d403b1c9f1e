package offload

import (
	"encoding/binary"
	"fmt"

	"rattrap/internal/host"
)

// The flat binary wire codec: the payload encoding of every frame. The
// outer framing (one uvarint byte length, then that many payload bytes,
// capped by the connection's frame limit *before* any payload-sized
// allocation) lives in codec.go.
//
// # Payload layout (wire version 1)
//
//	[0] magic 0xB1
//	[1] wire version (1)
//	[2] kind (1 hello, 2 exec, 3 needcode, 4 code, 5 result, 6 chunkoffer, 7 chunkneed)
//	[3] flags (kind-specific; bit0 of a needcode frame: payload present)
//	[4:] fields in fixed per-kind order
//
// Scalar fields are zigzag varints (all wire integers are signed Go types;
// zigzag keeps negative values round-trippable). Strings and byte slices
// are a uvarint length followed by the raw bytes. Every field is always
// present — no omission of zero values — and a decoder that does not
// consume the payload exactly rejects the frame.
//
// The magic and version bytes are checked on every frame. A payload that
// opens with anything else — a client predating this codec spoke gob,
// whose messages start in 0x00..0x7F or 0xF8..0xFF, never 0xB1 — is
// rejected with a typed *WireVersionError, which a server answers with a
// protocol-error result frame before hanging up.
//
// # Zero-copy contract
//
// Binary decode does not copy: the returned Frame's payload structs are
// connection-owned scratch, string fields are served from a per-connection
// intern table, and byte-slice fields (Exec.Params) alias the connection's
// read buffer. Everything is valid only until the next Recv. A caller that
// hands the frame to another goroutine must either copy the aliased bytes
// or take ownership of the buffer with TakeRecvBuf and release it when
// done — see the RecvBuf docs for the hazard this closes.

const (
	// binMagic is the first payload byte of every binary frame.
	binMagic = 0xB1
	// BinaryWireVersion is the wire version this codec speaks.
	BinaryWireVersion = 1
	// binHeaderLen is magic + version + kind + flags.
	binHeaderLen = 4
	// needCodeHasPayload marks a needcode frame carrying Seq+AID.
	needCodeHasPayload = 0x01
)

// Wire discriminator bytes for frame kinds.
const (
	binKindHello      = 1
	binKindExec       = 2
	binKindNeedCode   = 3
	binKindCode       = 4
	binKindResult     = 5
	binKindChunkOffer = 6
	binKindChunkNeed  = 7
)

// binKinds maps Kind to its wire discriminator byte; binKindNames is the
// inverse (the zero Kind marks an unassigned byte).
var binKinds = map[Kind]byte{
	KindHello:      binKindHello,
	KindExec:       binKindExec,
	KindNeedCode:   binKindNeedCode,
	KindCode:       binKindCode,
	KindResult:     binKindResult,
	KindChunkOffer: binKindChunkOffer,
	KindChunkNeed:  binKindChunkNeed,
}

var binKindNames = [...]Kind{
	binKindHello:      KindHello,
	binKindExec:       KindExec,
	binKindNeedCode:   KindNeedCode,
	binKindCode:       KindCode,
	binKindResult:     KindResult,
	binKindChunkOffer: KindChunkOffer,
	binKindChunkNeed:  KindChunkNeed,
}

// WireVersionError reports a frame this build cannot read: its payload
// does not open with the wire magic, or advertises an unknown wire
// version. Servers answer it on the hello with a typed protocol-error
// result frame instead of silently dropping the connection. Match with
// errors.As.
type WireVersionError struct {
	// Version is the wire version byte the peer sent; 0 when the payload
	// did not open with the wire magic at all.
	Version byte
}

func (e *WireVersionError) Error() string {
	if e.Version == 0 {
		return fmt.Sprintf("offload: frame does not open with the wire magic (this build speaks binary wire v%d only)", BinaryWireVersion)
	}
	return fmt.Sprintf("offload: unsupported wire version %d (have %d)", e.Version, BinaryWireVersion)
}

// RecvBuf is ownership of the read buffer backing the byte-slice views of
// the most recently received frame. The pooled read path makes the
// aliasing hazard easy to hit silently: by default the buffer is recycled
// on the next Recv, so a payload view (Exec.Params) handed to a pipeline
// worker would be overwritten mid-flight by the connection's next frame.
// TakeRecvBuf transfers the buffer out of the recycle path; the taker
// must call Release exactly once, after the last use of the views.
//
// The zero RecvBuf (nothing to take) releases as a no-op, so callers can
// take-and-release unconditionally.
type RecvBuf struct {
	bp *[]byte
}

// Release returns the buffer to the shared pool. Safe on the zero value.
func (b RecvBuf) Release() {
	if b.bp == nil {
		return
	}
	if buf := *b.bp; cap(buf) <= maxPooledBuf {
		*b.bp = buf[:0]
		recvBufPool.Put(b.bp)
	}
}

// maxInternEntries bounds a connection's string intern table. Hot fields
// (device, AID, app, method, result codes and repeated outputs) intern
// within a handful of requests; past the cap, decode falls back to a plain
// per-frame allocation instead of growing without bound.
const maxInternEntries = 1024

// internStr returns a stable string for b, served from the connection's
// intern table. The map lookup keyed by string(b) does not allocate; only
// the first sighting of a value pays for the copy.
func (c *Conn) internStr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.intern[string(b)]; ok {
		return s
	}
	if c.intern == nil {
		c.intern = make(map[string]string, 16)
	}
	s := string(b)
	if len(c.intern) < maxInternEntries {
		c.intern[s] = s
	}
	return s
}

// --- encoding ---

// putZig appends a zigzag varint to the send buffer.
func (c *Conn) putZig(v int64) {
	n := binary.PutUvarint(c.lenBuf[:], uint64(v)<<1^uint64(v>>63))
	c.sendBuf.Write(c.lenBuf[:n])
}

// putUint appends a uvarint to the send buffer.
func (c *Conn) putUint(v uint64) {
	n := binary.PutUvarint(c.lenBuf[:], v)
	c.sendBuf.Write(c.lenBuf[:n])
}

// putBytes appends a length-prefixed byte string to the send buffer.
func (c *Conn) putBytes(b []byte) {
	c.putUint(uint64(len(b)))
	c.sendBuf.Write(b)
}

// putString appends a length-prefixed string without copying it first.
func (c *Conn) putString(s string) {
	c.putUint(uint64(len(s)))
	c.sendBuf.WriteString(s)
}

// putHeader appends the four header bytes of a payload.
func (c *Conn) putHeader(kind, flags byte) {
	c.sendBuf.Write([]byte{binMagic, BinaryWireVersion, kind, flags})
}

// putResult appends a result payload's fields.
func (c *Conn) putResult(r *Result) {
	c.putString(r.Output)
	c.putZig(int64(r.ResultBytes))
	c.putString(r.Err)
	c.putString(r.Code)
	c.putZig(int64(r.RetryAfterMs))
	c.putZig(int64(r.Seq))
}

// encodeBinary writes f's binary payload into the send buffer. The frame
// must already be validated.
func (c *Conn) encodeBinary(f *Frame) error {
	kind, ok := binKinds[f.Kind]
	if !ok {
		return fmt.Errorf("offload: binary codec cannot encode kind %q", f.Kind)
	}
	flags := byte(0)
	if f.Kind == KindNeedCode && f.NeedCode != nil {
		flags |= needCodeHasPayload
	}
	c.putHeader(kind, flags)
	switch f.Kind {
	case KindHello:
		c.putString(f.Hello.DeviceID)
		ver := f.Hello.wireVersion
		if ver == 0 {
			// Default the explicit field to the version being spoken.
			ver = BinaryWireVersion
		}
		c.putUint(uint64(ver))
	case KindExec:
		e := f.Exec
		c.putString(e.DeviceID)
		c.putString(e.AID)
		c.putString(e.App)
		c.putString(e.Method)
		c.putZig(int64(e.Seq))
		c.putBytes(e.Params)
		c.putZig(int64(e.ParamBytes))
		c.putZig(int64(e.FileBytes))
		c.putZig(int64(e.RoundTrips))
		c.putZig(int64(e.InteractBytes))
	case KindNeedCode:
		if f.NeedCode != nil {
			c.putZig(int64(f.NeedCode.Seq))
			c.putString(f.NeedCode.AID)
		}
	case KindCode:
		c.putString(f.Code.AID)
		c.putString(f.Code.App)
		c.putZig(int64(f.Code.Size))
		c.putZig(int64(f.Code.Seq))
	case KindResult:
		c.putResult(f.Result)
	case KindChunkOffer, KindChunkNeed:
		// Chunk negotiation rides the Exec carrier (see chunk.go): only
		// the carrier fields the two payloads actually use hit the wire.
		e := f.Exec
		c.putString(e.AID)
		c.putString(e.App)
		c.putZig(int64(e.ParamBytes))
		c.putZig(int64(e.Seq))
		c.putZig(int64(e.RoundTrips))
		c.putBytes(e.Params)
	}
	return nil
}

// --- decoding ---

// binReader walks a binary payload. Decode errors poison the whole frame,
// so it latches the first error instead of threading returns.
type binReader struct {
	buf []byte
	pos int
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("offload: binary frame: "+format, args...)
	}
}

func (r *binReader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated varint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) zig() int64 {
	u := r.uint()
	return int64(u>>1) ^ -int64(u&1)
}

// bytes returns a view of the next length-prefixed byte string, aliasing
// the payload buffer (capacity-clamped so appends cannot bleed into the
// following bytes). Zero length decodes as nil.
func (r *binReader) bytes() []byte {
	n := r.uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail("byte string of %d at %d overruns payload", n, r.pos)
		return nil
	}
	if n == 0 {
		return nil
	}
	v := r.buf[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return v
}

// decodeBinary decodes a binary payload into the connection's scratch
// structs and returns a Frame whose payload pointers alias them.
func (c *Conn) decodeBinary(buf []byte) (Frame, error) {
	if len(buf) == 0 || buf[0] != binMagic {
		return Frame{}, &WireVersionError{}
	}
	if len(buf) > 1 && buf[1] != BinaryWireVersion {
		return Frame{}, &WireVersionError{Version: buf[1]}
	}
	if len(buf) < binHeaderLen {
		return Frame{}, fmt.Errorf("offload: binary frame of %d bytes is shorter than its header", len(buf))
	}
	kindByte, flags := buf[2], buf[3]
	if int(kindByte) >= len(binKindNames) || binKindNames[kindByte] == "" {
		return Frame{}, fmt.Errorf("offload: binary frame with unknown kind %d", kindByte)
	}
	r := binReader{buf: buf, pos: binHeaderLen}
	f := Frame{Kind: binKindNames[kindByte]}
	switch f.Kind {
	case KindHello:
		c.recvHello = Hello{
			DeviceID:    c.internStr(r.bytes()),
			wireVersion: int(r.uint()),
		}
		f.Hello = &c.recvHello
	case KindExec:
		c.recvExec = ExecRequest{
			DeviceID: c.internStr(r.bytes()),
			AID:      c.internStr(r.bytes()),
			App:      c.internStr(r.bytes()),
			Method:   c.internStr(r.bytes()),
			Seq:      int(r.zig()),
			Params:   r.bytes(),
		}
		c.recvExec.ParamBytes = host.Bytes(r.zig())
		c.recvExec.FileBytes = host.Bytes(r.zig())
		c.recvExec.RoundTrips = int(r.zig())
		c.recvExec.InteractBytes = host.Bytes(r.zig())
		f.Exec = &c.recvExec
	case KindNeedCode:
		if flags&needCodeHasPayload != 0 {
			c.recvNeed = NeedCode{
				Seq: int(r.zig()),
				AID: c.internStr(r.bytes()),
			}
			f.NeedCode = &c.recvNeed
		}
	case KindCode:
		c.recvCode = CodePush{
			AID:  c.internStr(r.bytes()),
			App:  c.internStr(r.bytes()),
			Size: host.Bytes(r.zig()),
			Seq:  int(r.zig()),
		}
		f.Code = &c.recvCode
	case KindResult:
		c.recvResult = Result{
			Output:       c.internStr(r.bytes()),
			ResultBytes:  host.Bytes(r.zig()),
			Err:          c.internStr(r.bytes()),
			Code:         c.internStr(r.bytes()),
			RetryAfterMs: r.zig(),
			Seq:          int(r.zig()),
		}
		f.Result = &c.recvResult
	case KindChunkOffer, KindChunkNeed:
		c.recvExec = ExecRequest{
			AID: c.internStr(r.bytes()),
			App: c.internStr(r.bytes()),
		}
		c.recvExec.ParamBytes = host.Bytes(r.zig())
		c.recvExec.Seq = int(r.zig())
		c.recvExec.RoundTrips = int(r.zig())
		c.recvExec.Params = r.bytes()
		f.Exec = &c.recvExec
	}
	if r.err != nil {
		return Frame{}, r.err
	}
	if r.pos != len(buf) {
		return Frame{}, fmt.Errorf("offload: binary frame has %d trailing bytes", len(buf)-r.pos)
	}
	return f, nil
}
