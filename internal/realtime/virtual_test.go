package realtime

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
)

// The connection machine's second transport: a protocol on a bare
// sim.Engine, whose connections carry real frames through offload.Conns
// over in-memory links. Steps run on the proc that asks for them, code-wait
// deadlines are engine events and every device is a proc, so a run is a
// function of its seed: no sleeps, and a byte-identical frame transcript.

// epoch is virtual time zero on the harness's clock.
var epoch = time.Unix(0, 0)

type vServer struct {
	t  *testing.T
	e  *sim.Engine
	pr *protocol

	conns      []*vConn
	transcript bytes.Buffer // every byte either side wrote, stamped with time and direction
	violations []string     // requests that executed with their result in the window
}

func newVServer(t *testing.T, seed int64, cfg core.Config, depth int) *vServer {
	e := sim.NewEngine(seed)
	return &vServer{t: t, e: e, pr: newProtocol(e, cfg, 1, depth, log.New(io.Discard, "", 0))}
}

func (s *vServer) now() time.Time { return epoch.Add(s.e.Now().Duration()) }

// run drives the engine until nothing is left to happen, then requires a
// clean teardown: no proc parked, the cluster's books in agreement, no
// runtime claimed or request queued on the platform, and no connection
// holding a slot or a code waiter.
func (s *vServer) run() {
	s.t.Helper()
	s.e.Run()
	if n := s.e.LiveProcs(); n != 0 {
		s.t.Errorf("%d procs still parked after the run", n)
	}
	if err := s.pr.cl.Audit(); err != nil {
		s.t.Error(err)
	}
	pl := s.pr.cl.Shard(0)
	if n, q := pl.DB().StateCount(core.LifecycleActive), pl.QueueLength(); n != 0 || q != 0 {
		s.t.Errorf("after teardown: %d runtimes active, %d requests queued", n, q)
	}
	for i, c := range s.conns {
		if !c.closed || c.active != 0 || len(c.m.codeWait) != 0 || len(c.m.codeFIFO) != 0 {
			s.t.Errorf("conn %d after teardown: closed %v, %d slots active, %d code waiters",
				i, c.closed, c.active, len(c.m.codeWait))
		}
	}
	for _, v := range s.violations {
		s.t.Error(v)
	}
}

// at runs fn as a proc d into the run.
func (s *vServer) at(d time.Duration, name string, fn func(p *sim.Proc)) {
	s.e.Spawn(name, func(p *sim.Proc) {
		p.Sleep(d)
		fn(p)
	})
}

// vLink is one direction of a connection: the bytes one side's codec wrote
// and the other's has not read, and how many whole frames they hold (every
// codec Send is one Write), so a reader parks instead of reading a short
// frame.
type vLink struct {
	c      *vConn
	dir    byte
	buf    bytes.Buffer
	frames int
	closed bool // the writing side hung up
}

func (l *vLink) Write(p []byte) (int, error) {
	if l.closed {
		return 0, io.ErrClosedPipe
	}
	fmt.Fprintf(&l.c.s.transcript, "%d %c %x\n", l.c.s.e.Now(), l.dir, p)
	l.buf.Write(p)
	l.frames++
	l.c.poke()
	return len(p), nil
}

func (l *vLink) Read(p []byte) (int, error) { return l.buf.Read(p) }

// vConn is one connection: its links, both codecs, the server's machine
// and the reader's admission state.
type vConn struct {
	s        *vServer
	up, down *vLink
	sc, dc   *offload.Conn // the server's and the device's codec
	m        *machine
	kick     *sim.Signal // fired, and replaced, whenever anything on the connection changes
	active   int         // admitted requests not yet served
	closed   bool        // the reader has stopped: code waits fail
	broken   bool        // a fatal message tore the connection down
}

func (c *vConn) poke() {
	k := c.kick
	c.kick = sim.NewSignal(c.s.e)
	k.Fire()
}

func (c *vConn) await(p *sim.Proc, ready func() bool) {
	for !ready() {
		p.Wait(c.kick)
	}
}

func (s *vServer) dial() *vConn {
	c := &vConn{s: s, kick: sim.NewSignal(s.e)}
	c.up, c.down = &vLink{c: c, dir: '>'}, &vLink{c: c, dir: '<'}
	c.sc = offload.NewConn(struct {
		io.Reader
		io.Writer
	}{c.up, c.down})
	c.dc = offload.NewConn(struct {
		io.Reader
		io.Writer
	}{c.down, c.up})
	c.m = newMachine(s.pr, nil, s.now)
	s.conns = append(s.conns, c)
	s.e.Spawn("reader", c.read)
	return c
}

// read is the adapter's reader: what server.go's read, admit, worker and
// run are on a TCP connection.
func (c *vConn) read(p *sim.Proc) {
	c.m.t = &vPort{c: c, p: p}
	for {
		c.await(p, func() bool { return c.up.frames > 0 || c.up.closed || c.broken })
		if c.broken {
			break
		}
		if c.up.frames > 0 {
			c.up.frames--
		}
		r, admit, err := c.m.recv(c.sc)
		if err != nil {
			break
		}
		if !admit {
			continue
		}
		c.await(p, func() bool { return c.active < c.s.pr.depth })
		c.active++
		c.s.e.Spawn("worker", func(wp *sim.Proc) {
			w := &vPort{c: c, p: wp}
			w.st = newReqState(c.m, w)
			w.st.serve(r)
			r.pin.Release()
			c.active--
			c.poke()
		})
	}
	c.closed = true
	c.poke()
	c.m.close()
	c.await(p, func() bool { return c.active == 0 })
	c.up.closed, c.down.closed = true, true
	c.poke()
}

// vPort is the machine's transport on a virtual connection. A worker's port
// also checks, around every step, that a request whose result is already
// in the idempotency window does not execute in it.
type vPort struct {
	c  *vConn
	p  *sim.Proc
	st *reqState // the worker's request; nil on the reader's port
}

func (w *vPort) step(name string, fn func(*sim.Proc)) {
	if w.st == nil {
		fn(w.p)
		return
	}
	_, stored := w.c.s.pr.dedup.lookup(w.st.key)
	runs := stageCount(&w.st.sp, obs.StageRun)
	fn(w.p)
	if stored && stageCount(&w.st.sp, obs.StageRun) > runs {
		w.c.s.violations = append(w.c.s.violations, fmt.Sprintf(
			"%v: %+v executed in step %s with its result in the window", w.c.s.e.Now(), w.st.key, name))
	}
}

func stageCount(sp *obs.Span, stage string) int {
	n := 0
	for _, r := range sp.Stages() {
		if r.Stage == stage {
			n++
		}
	}
	return n
}

func (w *vPort) emit(m outMsg) {
	c := w.c
	if c.broken {
		return
	}
	if m.isResult {
		_ = c.sc.SendResult(&m.res)
	} else if m.frame.Kind != "" {
		_ = c.sc.Send(m.frame)
	}
	c.s.pr.delivered(&m, c.s.now())
	if m.fatal != "" {
		c.broken, c.down.closed = true, true
		c.poke()
	}
}

func (w *vPort) waitCode(ch <-chan codeMsg, deadline time.Time) (codeMsg, error) {
	c := w.c
	at := sim.Time(deadline.Sub(epoch))
	if now := c.s.e.Now(); at < now {
		at = now
	}
	expired := false
	ev := c.s.e.At(at, func() { expired = true; c.poke() })
	defer ev.Cancel()
	for {
		select {
		case msg := <-ch:
			return msg, nil
		default:
		}
		switch {
		case c.closed:
			return codeMsg{}, errConnClosed
		case expired:
			return codeMsg{}, errCodeTimeout
		}
		w.p.Wait(c.kick)
	}
}

// vDev is a device's end of a virtual connection, driven from its proc.
type vDev struct {
	c *vConn
	p *sim.Proc
}

// connect dials and sends the hello.
func (s *vServer) connect(p *sim.Proc, id string) *vDev {
	d := &vDev{c: s.dial(), p: p}
	d.send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: id}})
	return d
}

func (d *vDev) send(f offload.Frame) error { return d.c.dc.Send(f) }

// recv waits for the server's next frame, or for its end of the connection
// to close (io.EOF).
func (d *vDev) recv() (offload.Frame, error) {
	l := d.c.down
	d.c.await(d.p, func() bool { return l.frames > 0 || l.closed })
	if l.frames > 0 {
		l.frames--
	}
	return d.c.dc.Recv()
}

// hangUp closes the device's side: the server reads what was sent, then EOF.
func (d *vDev) hangUp() {
	d.c.up.closed = true
	d.c.poke()
}

// offload runs one full exchange, pushing the code if asked, and reports
// the result and whether the code was asked for.
func (d *vDev) offload(app string, seq int) (offload.Result, bool, error) {
	f := execFrame(app, seq)
	if err := d.send(f); err != nil {
		return offload.Result{}, false, err
	}
	r, err := d.recv()
	if err != nil {
		return offload.Result{}, false, err
	}
	needed := r.Kind == offload.KindNeedCode
	if needed {
		if err := d.send(codeFrame(f.Exec.AID, app, 0)); err != nil {
			return offload.Result{}, true, err
		}
		if r, err = d.recv(); err != nil {
			return offload.Result{}, true, err
		}
	}
	if r.Kind != offload.KindResult {
		return offload.Result{}, needed, fmt.Errorf("expected a result, got %s", r.Kind)
	}
	return *r.Result, needed, nil
}
