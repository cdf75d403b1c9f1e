package realtime

import (
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rattrap/internal/cluster"
	"rattrap/internal/core"
	"rattrap/internal/metrics"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
)

// Options sizes a server. Zero values select the defaults.
type Options struct {
	// PipelineDepth is how many exec requests one connection may have in
	// flight at once. The connection's reader keeps reading frames while
	// requests execute, and results are sent as they complete — possibly out
	// of order, matched by Result.Seq. 1 (the default) preserves strictly
	// serial per-connection behavior. A client must not pipeline deeper than
	// the server's depth: once the reader blocks on admission it stops
	// reading frames (including code pushes) until a slot frees.
	PipelineDepth int
	// Shards is how many platform shards the server's cluster.Cluster
	// starts with (default 1). Each shard is a full single-node platform —
	// its own runtime pool, warehouse and admission bounds — on the
	// server's one engine and pacing driver, and requests route by AID
	// through the cluster's live membership, so shards can be added,
	// drained or failed while serving (Server.Cluster, under Driver().Do).
	// Shards overlap in virtual time, which is what the pacer turns into
	// wall-clock capacity. With more than one shard, instruments share the
	// server's registry under "shardN." prefixes and runtime CIDs get "sN-".
	Shards int
}

func (o Options) withDefaults() Options {
	if o.PipelineDepth < 1 {
		o.PipelineDepth = 1
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// Server is the TCP adapter of the connection machine (machine.go): it
// accepts connections, runs each one's reader and request workers as
// goroutines, paces the engine with a Driver, and bounds reads and writes
// with wall-clock socket deadlines. All cross-goroutine access to the
// cluster goes through drv.Do.
type Server struct {
	*protocol
	drv *Driver

	mu       sync.Mutex
	closed   bool
	closedCh chan struct{} // closed by Close; unblocks admission waits
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup // in-flight connection handlers

	// readerParked, when set before Serve, is called by a connection's
	// reader each time all PipelineDepth workers are busy and it waits for
	// one: the observable point tests of Close wait for.
	readerParked func()
}

// NewServerOpts builds a cluster of platforms of cfg and starts its
// pacing driver. speed scales virtual time (1 = real time); the zero
// Options serve one shard at pipeline depth 1.
func NewServerOpts(cfg core.Config, speed float64, logger *log.Logger, opts Options) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	opts = opts.withDefaults()
	e := sim.NewEngine(1)
	pr := newProtocol(e, cfg, opts.Shards, opts.PipelineDepth, logger)
	drv := NewDriver(e, speed)
	drv.Start()
	return &Server{
		protocol: pr,
		drv:      drv,
		closedCh: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Driver exposes the pacing driver that owns the server's engine.
func (s *Server) Driver() *Driver { return s.drv }

// Cluster exposes the platform shards and their live membership. It lives
// on the driver's engine: once the server is serving, read or mutate it
// (AddShard, RemoveShard, FailShard, per-shard platforms) only inside
// Driver().Do.
func (s *Server) Cluster() *cluster.Cluster { return s.cl }

// Metrics exposes the server's observability registry: platform counters
// and gauges (dispatch.*, warehouse.*, core.*), virtual-time stage
// histograms (stage.*), per-request span folds (server.stage.*), and the
// wall-clock request histogram (server.request_wall).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Latency exposes the wall-clock request-latency histogram: one
// observation per exec request that produced a result frame, measured
// from frame receipt to result send. Requests cut off by timeouts or
// protocol violations are not observed — they would poison the tail with
// connection-failure artifacts that are not request latencies.
func (s *Server) Latency() *metrics.LatencyHistogram { return s.lat }

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			conn.Close() // lost the race with Close
			return nil
		}
		go func() {
			defer s.untrack(conn)
			defer conn.Close()
			if err := s.newConnHandler(conn).run(); err != nil && !errors.Is(err, io.EOF) {
				s.log.Printf("conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// track registers a connection and its handler; it refuses (returning
// false) once the server is closed, so Close's drain can't miss a handler
// started after it swept the connection table.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.wg.Done()
}

// Close closes live connections, waits for every in-flight handler to
// drain, and only then stops the driver — so no handler can touch the
// driver after Stop. Closing conns alone cannot unpark a reader blocked on
// pipeline admission (it is waiting on a channel, not a read), so Close
// also closes closedCh, which every admission wait selects on.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closedCh)
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.drv.Stop()
}

// newConnHandler sets up one device connection: run's goroutine is its
// reader, up to PipelineDepth worker goroutines run its requests, and each
// of them sends the frames it makes. Responses may leave out of order;
// clients match them by Result.Seq.
func (s *Server) newConnHandler(conn net.Conn) *connHandler {
	h := &connHandler{s: s, conn: conn, c: offload.NewConn(conn),
		work: make(chan request), connDone: make(chan struct{})}
	h.c.CoalesceSends()
	h.m = newMachine(s.protocol, &tcpPort{h: h}, time.Now)
	return h
}

// connHandler is one connection's goroutines and what they share.
type connHandler struct {
	s    *Server
	conn net.Conn
	c    *offload.Conn
	m    *machine

	work     chan request  // reader -> workers; unbuffered, so a send is a free pipeline slot
	connDone chan struct{} // closed when the reader exits; fails code waits

	workers  sync.WaitGroup
	nworkers int // workers started so far; reader only

	// sendMu owns the codec's send side and err; senders counts the
	// goroutines in send, so the last one in line knows it is.
	sendMu  sync.Mutex
	senders atomic.Int32
	err     error // the first failed send or fatal message; later frames are dropped
}

// run owns the shutdown sequence: when the reader exits (read error,
// protocol violation, or server close), connDone fails the workers' code
// waits and the machine fires its abort signal, and the workers drain
// through the platform and exit on the closed work queue. Every frame
// leaves inside its sender's send, so nothing is queued behind them.
func (h *connHandler) run() error {
	loopErr := h.read()
	close(h.connDone)
	h.m.close()
	close(h.work)
	h.workers.Wait()
	if h.err != nil {
		// A send failed or a fatal message went first; the reader's error is
		// just the fallout of the conn being torn down under it.
		return h.err
	}
	return loopErr
}

// read feeds the machine the connection's frames and admits the requests
// it returns. Only the hello is read under a deadline: devices legitimately
// idle between requests and hold no platform resources while they do, and
// mid-request silence is bounded by the workers' code waits.
func (h *connHandler) read() error {
	h.conn.SetReadDeadline(time.Now().Add(readTimeout))
	_, _, err := h.m.recv(h.c)
	h.conn.SetReadDeadline(time.Time{})
	for err == nil {
		var r request
		var admit bool
		if r, admit, err = h.m.recv(h.c); admit && !h.admit(r) {
			r.pin.Release()
			err = errors.New("realtime: server shutting down")
		}
	}
	return err
}

// admit hands r to a request worker, which is the connection's admission
// control: there are at most PipelineDepth workers and each serves one
// request at a time, so with the pipeline full the reader blocks here until
// a worker comes free — or the server closes, reported as false. Workers
// start lazily (a connection that never has more than k requests in flight
// never has more than k) and then live as long as the connection, so a
// request lands on a goroutine whose stack the ones before it already grew.
func (h *connHandler) admit(r request) bool {
	select {
	case h.work <- r: // a parked worker took it
		return true
	default:
	}
	if h.nworkers < h.s.depth {
		h.nworkers++
		h.workers.Add(1)
		go h.worker()
	} else if h.s.readerParked != nil {
		h.s.readerParked()
	}
	select {
	case h.work <- r:
		return true
	case <-h.s.closedCh:
		return false
	}
}

// worker serves admitted requests one at a time until run closes the queue.
func (h *connHandler) worker() {
	defer h.workers.Done()
	st := newReqState(h.m, &tcpPort{h: h})
	for r := range h.work {
		st.serve(r)
		r.pin.Release()
	}
}

// send puts m on the wire from the goroutine that made it: the reader's or
// a worker's. Sends coalesce: frames are buffered, and the last sender in
// line flushes, so a burst of pipelined results leaves in one syscall
// instead of one per reply. A fatal message flushes too, then records its
// error and closes the socket, which unblocks the reader's pending read;
// so does a failed send. Either way the farewell and every frame sent
// ahead of it have had their write, and later frames are dropped. The
// write deadline is armed per message, so it also covers the flush, which
// is where the bytes are written.
func (h *connHandler) send(m *outMsg) {
	h.senders.Add(1)
	h.sendMu.Lock()
	defer h.sendMu.Unlock()
	last := h.senders.Add(-1) == 0
	if h.err != nil {
		return
	}
	h.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	var err error
	if m.isResult {
		err = h.c.SendResult(&m.res)
	} else if m.frame.Kind != "" {
		err = h.c.Send(m.frame)
	}
	if err == nil && (last || m.fatal != "") {
		err = h.c.FlushSend()
	}
	if err == nil {
		h.s.delivered(m, time.Now())
		if m.fatal != "" {
			err = errors.New(m.fatal)
		}
	}
	if err != nil {
		h.err = err
		h.conn.Close()
	}
}

// tcpPort is the machine's transport on a TCP connection: one for the
// reader and one per worker, each with the timer its code waits reuse.
type tcpPort struct {
	h     *connHandler
	timer *time.Timer // made on the first code wait
}

func (w *tcpPort) step(name string, fn func(*sim.Proc)) { w.h.s.drv.Do(name, fn) }

func (w *tcpPort) emit(m outMsg) { w.h.send(&m) }

// waitCode waits on a wall timer: at the benchmark's speed of 1e6 a virtual
// deadline would be over in microseconds.
func (w *tcpPort) waitCode(ch <-chan codeMsg, deadline time.Time) (codeMsg, error) {
	d := time.Until(deadline)
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	defer func() { // stop it, sweeping a tick that raced the stop
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
	}()
	select {
	case msg := <-ch:
		return msg, nil
	case <-w.timer.C:
		return codeMsg{}, errCodeTimeout
	case <-w.h.connDone:
		return codeMsg{}, errConnClosed
	}
}
