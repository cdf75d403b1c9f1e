package realtime

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"rattrap/internal/cluster"
	"rattrap/internal/core"
	"rattrap/internal/metrics"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// Options tunes the server's robustness envelope. Zero values select the
// defaults below; negative values disable the corresponding guard.
type Options struct {
	// ReadTimeout bounds each intra-request frame read (the hello and the
	// code push). This is the slow-loris guard: a device that goes silent
	// mid-exchange is cut off and its pinned runtime slot released,
	// instead of the handler blocking in Recv forever. Default 15s.
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write (a device that stops draining
	// its socket). Default 15s.
	WriteTimeout time.Duration
	// IdleTimeout bounds the wait for the next exec frame on an open
	// connection. Disabled by default: devices legitimately idle between
	// requests and hold no platform resources while they do.
	IdleTimeout time.Duration
	// RequestTimeout is the wall-clock budget for one request's protocol
	// exchange, from exec-frame receipt to result send. It tightens the
	// read deadline of the code-push exchange. Default 2min.
	RequestTimeout time.Duration
	// MaxFrame caps the decoded size of any received frame (default
	// offload.DefaultMaxFrame).
	MaxFrame int
	// DedupWindow is how many completed results the server remembers for
	// idempotent retries, keyed by (DeviceID, AID, Seq). A retry of a
	// request whose result was computed but lost in transit is answered
	// from this window without re-executing. Default 256 entries.
	DedupWindow int
	// PipelineDepth is how many exec requests one connection may have in
	// flight at once. The connection's decode loop keeps reading frames
	// while requests execute, and results are sent as they complete —
	// possibly out of order, matched by Result.Seq. 1 (the default)
	// preserves strictly serial per-connection behavior. A client must not
	// pipeline deeper than the server's depth: once the decode loop blocks
	// on admission it stops reading frames (including code pushes) until a
	// slot frees.
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
	def := func(v *time.Duration, d time.Duration) {
		switch {
		case *v == 0:
			*v = d
		case *v < 0:
			*v = 0 // disabled
		}
	}
	def(&o.ReadTimeout, 15*time.Second)
	def(&o.WriteTimeout, 15*time.Second)
	def(&o.RequestTimeout, 2*time.Minute)
	if o.IdleTimeout < 0 {
		o.IdleTimeout = 0
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = offload.DefaultMaxFrame
	}
	if o.DedupWindow == 0 {
		o.DedupWindow = 256
	}
	if o.PipelineDepth < 1 {
		o.PipelineDepth = 1
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// Server serves the offload wire protocol over real connections: a paced
// Driver, the cluster.Cluster living on its engine, and the wire protocol.
// All cross-goroutine access to the cluster goes through drv.Do.
type Server struct {
	drv   *Driver
	cl    *cluster.Cluster
	log   *log.Logger
	lat   *metrics.LatencyHistogram
	opts  Options
	dedup *dedupCache

	// wreg executes workloads ahead of dispatch, on the request's worker
	// goroutine. Apps are deterministic and their shared state is
	// read-only after construction, so one registry serves all
	// connections' workers concurrently; the engine-injected dispatch
	// then returns the precomputed result instead of computing under the
	// serialized driver lock.
	wreg *workload.Registry

	// Observability: the server always carries a registry (it is the
	// platform's observable entry point). Counters are pre-resolved here so
	// the request path never touches the registry's maps.
	reg        *obs.Registry
	cRequests  *obs.Counter // exec frames accepted
	cDedupHits *obs.Counter // requests answered from the idempotency window
	cResults   *obs.Counter // result frames sent (success or typed error)

	mu       sync.Mutex
	closed   bool
	closedCh chan struct{} // closed by Close; unblocks admission waits
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup // in-flight connection handlers
}

// NewServer builds a platform of the given kind and starts its pacing
// driver with default Options. speed scales virtual time (1 = real time).
func NewServer(cfg core.Config, speed float64, logger *log.Logger) *Server {
	return NewServerOpts(cfg, speed, logger, Options{})
}

// NewServerOpts is NewServer with explicit robustness Options.
func NewServerOpts(cfg core.Config, speed float64, logger *log.Logger, opts Options) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	opts = opts.withDefaults()
	var dedup *dedupCache
	if opts.DedupWindow > 0 {
		dedup = newDedupCache(opts.DedupWindow)
	}
	reg := obs.NewRegistry()
	e := sim.NewEngine(1)
	cl := cluster.NewReplicated(e, cfg, opts.Shards, 1)
	cl.SetObs(reg)
	drv := NewDriver(e, speed)
	drv.Start()
	s := &Server{
		drv:        drv,
		cl:         cl,
		log:        logger,
		lat:        metrics.NewLatencyHistogram(),
		opts:       opts,
		dedup:      dedup,
		wreg:       workload.NewRegistry(),
		reg:        reg,
		cRequests:  reg.Counter("server.requests"),
		cDedupHits: reg.Counter("server.dedup_hits"),
		cResults:   reg.Counter("server.results"),
		closedCh:   make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
	}
	reg.RegisterHistogram("server.request_wall", s.lat)
	return s
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
			if s.isClosed() {
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
			if err := s.handle(conn); err != nil && !errors.Is(err, io.EOF) {
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

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close closes live connections, waits for every in-flight handler to
// drain, and only then stops the driver — so no handler can touch the
// driver after Stop. Closing conns alone cannot unpark a decode loop
// blocked on pipeline admission (it is waiting on a channel, not a read),
// so Close also closes closedCh, which every admission wait selects on.
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

// recv reads one frame, bounding the wait with a read deadline when
// timeout is positive.
func (s *Server) recv(conn net.Conn, c *offload.Conn, timeout time.Duration) (offload.Frame, error) {
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
		defer conn.SetReadDeadline(time.Time{})
	}
	return c.Recv()
}

// send writes one frame under the configured write deadline.
func (s *Server) send(conn net.Conn, c *offload.Conn, f offload.Frame) error {
	if d := s.opts.WriteTimeout; d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return c.Send(f)
}

// sendResult writes a result frame under the configured write deadline,
// without building a Frame (the reply hot path; see Conn.SendResult).
func (s *Server) sendResult(conn net.Conn, c *offload.Conn, r *offload.Result) error {
	if d := s.opts.WriteTimeout; d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return c.SendResult(r)
}

// sendProtocolError tells the device why the server is hanging up, on a
// best-effort basis, before the connection closes. Without this frame a
// misbehaving client sees only a reset and retries the same violation.
func (s *Server) sendProtocolError(conn net.Conn, c *offload.Conn, msg string) {
	_ = s.send(conn, c, offload.Frame{Kind: offload.KindResult, Result: &offload.Result{
		Err: msg, Code: offload.CodeProtocol,
	}})
}

// handle speaks the protocol with one device. A first frame the server
// cannot read — no wire magic (e.g. a client predating the binary wire) or
// an unknown wire version — is answered with a typed protocol-error frame
// rather than a silent hangup. After the hello the connection is handed to
// a connHandler, which pipelines up to PipelineDepth requests concurrently.
func (s *Server) handle(conn net.Conn) error {
	c := offload.NewConnLimit(conn, s.opts.MaxFrame)
	hello, err := s.recv(conn, c, s.opts.ReadTimeout)
	if err != nil {
		var wve *offload.WireVersionError
		if errors.As(err, &wve) {
			s.sendProtocolError(conn, c, wve.Error())
		}
		return err
	}
	if hello.Kind != offload.KindHello {
		msg := fmt.Sprintf("realtime: expected hello, got %s", hello.Kind)
		s.sendProtocolError(conn, c, msg)
		return errors.New(msg)
	}
	dev := hello.Hello.DeviceID
	s.log.Printf("device %s connected", dev)
	h := &connHandler{
		s:    s,
		conn: conn,
		c:    c,
		dev:  dev,
		// The abort signal is fired when this connection tears down: any of
		// its requests still parked in a dispatcher wait ring returns
		// ErrAborted instead of eventually claiming a runtime for a device
		// that is gone. Constructing a Signal only records the engine
		// pointer — no engine state is touched off-driver.
		abort: sim.NewSignal(s.drv.e),
		procs: procNames{
			request: "request:" + dev,
			push:    "push:" + dev,
			exec:    "exec:" + dev,
			chunks:  "chunks:" + dev,
			release: "release:" + dev,
			abort:   "abort:" + dev,
		},
		work:       make(chan request),
		out:        make(chan outMsg, s.opts.PipelineDepth+2),
		connDone:   make(chan struct{}),
		writerDone: make(chan struct{}),
		codeWait:   make(map[int]chan codeMsg),
	}
	return h.run()
}

// outMsg is one frame queued for the connection's writer goroutine.
// Results travel by value (res/isResult) so the per-reply *Result never
// escapes to the heap; other frames (NEED_CODE, protocol errors) use the
// frame field.
type outMsg struct {
	frame    offload.Frame
	res      offload.Result
	isResult bool
	// start, when set, marks the frame as a request's result: on a
	// successful send the writer observes the wall-clock latency, counts
	// the result, and folds span (if any) into server.stage.*. Results
	// are observed only when actually delivered.
	start time.Time
	span  *obs.Span
	// fatal, when non-empty, is a protocol violation: the writer delivers
	// the frame best-effort and then tears the connection down.
	fatal string
}

// procNames are the names of the processes a connection injects into the
// engine, built once per connection rather than concatenated per request.
type procNames struct {
	request, push, exec, chunks, release, abort string
}

// request is one exec frame on its way from the decode loop to a worker.
type request struct {
	req   offload.ExecRequest
	start time.Time
	pin   offload.RecvBuf // the read buffer req.Params aliases; the worker releases it
}

// connHandler pipelines one device connection: a decode loop (the
// connection handler's own goroutine) admits exec frames and routes code
// pushes, up to PipelineDepth worker goroutines drive the platform, and a
// single writer goroutine owns the send side of the codec. Responses may
// leave out of order; clients match them by Result.Seq.
type connHandler struct {
	s    *Server
	conn net.Conn
	c    *offload.Conn
	dev  string

	abort      *sim.Signal   // request-abort signal, fired at teardown
	procs      procNames     // injected-process names for this device
	work       chan request  // decode loop -> workers; unbuffered, so a send is a free pipeline slot
	out        chan outMsg   // workers/decode loop -> writer
	connDone   chan struct{} // closed when the decode loop exits
	writerDone chan struct{} // closed when the writer exits

	workers  sync.WaitGroup
	nworkers int // workers started so far; decode loop only

	mu       sync.Mutex
	inflight int
	codeWait map[int]chan codeMsg // seq -> worker awaiting a push or chunk offer
	codeFIFO []int                // arrival order, for pushes without a Seq

	errOnce sync.Once
	err     error
}

// run owns the shutdown sequence: when the decode loop exits (read error,
// protocol violation, or server close), connDone aborts workers parked on
// code waits, the workers drain through the platform and exit on the closed
// work queue, and only then is the writer's queue closed — every queued
// frame gets its send attempt.
func (h *connHandler) run() error {
	go h.writer()
	loopErr := h.decodeLoop()
	close(h.connDone)
	// Fire the abort signal so workers parked in a dispatcher wait ring
	// (waiting for a runtime that may never free up now that no more
	// releases are coming from this connection) unblock instead of
	// deadlocking workers.Wait. Signal state belongs to the engine, so the
	// fire runs under the driver.
	h.s.drv.Do(h.procs.abort, func(p *sim.Proc) { h.abort.Fire() })
	close(h.work)
	h.workers.Wait()
	close(h.out)
	<-h.writerDone
	if h.err != nil {
		// A worker or the writer failed first; the decode loop's error is
		// just the fallout of the conn being torn down under it.
		return h.err
	}
	return loopErr
}

// decodeLoop reads frames for the connection's whole life. Exec frames
// are admitted to a free worker (or refused by the server's close signal);
// code frames are routed to the worker that asked for them.
func (h *connHandler) decodeLoop() error {
	s := h.s
	for {
		h.armIdleDeadline()
		f, err := h.c.Recv()
		if err != nil {
			return err
		}
		switch f.Kind {
		case offload.KindExec:
			req := *f.Exec
			req.DeviceID = h.dev
			start := time.Now()
			s.cRequests.Inc()
			key := dedupKey{dev: h.dev, aid: req.AID, seq: req.Seq}
			if res, ok := s.dedup.lookup(key); ok {
				// Idempotent retry: the result was computed on a previous
				// attempt and the reply was lost. Answer inline from the
				// window — no pipeline slot, no worker, no re-execution.
				s.cDedupHits.Inc()
				h.out <- outMsg{res: res, isResult: true, start: start}
				continue
			}
			// req.Params aliases the codec's read buffer; take ownership
			// so the next Recv cannot recycle it under the worker. The
			// worker releases it when done.
			pin := h.c.TakeRecvBuf()
			h.beginRequest() // before the hand-off: the worker may be done before admit returns
			if !h.admit(request{req: req, start: start, pin: pin}) {
				pin.Release()
				return errors.New("realtime: server shutting down")
			}
		case offload.KindCode:
			if !h.routeCodeMsg(f.Code.Seq, codeMsg{push: *f.Code}) {
				msg := "realtime: code frame with no code transfer pending"
				h.enqueueProtocolError(msg)
				return errors.New(msg)
			}
		case offload.KindChunkOffer:
			// A device opening a delta push instead of sending the full
			// blob. Routed to the worker awaiting this seq's code; it
			// negotiates against the warehouse and answers KindChunkNeed.
			offer, derr := offload.DecodeChunkOffer(f)
			if derr != nil {
				msg := "realtime: " + derr.Error()
				h.enqueueProtocolError(msg)
				return errors.New(msg)
			}
			if !h.routeCodeMsg(offer.Seq, codeMsg{offer: &offer}) {
				msg := "realtime: chunk offer with no code transfer pending"
				h.enqueueProtocolError(msg)
				return errors.New(msg)
			}
		default:
			msg := fmt.Sprintf("realtime: expected exec, got %s", f.Kind)
			h.enqueueProtocolError(msg)
			return errors.New(msg)
		}
	}
}

// armIdleDeadline applies IdleTimeout to the next read, but only while no
// request is in flight: devices idle between requests hold no platform
// resources, and mid-request reads are guarded by the workers' own
// code-wait timeouts instead.
func (h *connHandler) armIdleDeadline() {
	h.mu.Lock()
	if h.inflight == 0 {
		if d := h.s.opts.IdleTimeout; d > 0 {
			h.conn.SetReadDeadline(time.Now().Add(d))
		} else {
			h.conn.SetReadDeadline(time.Time{})
		}
	}
	h.mu.Unlock()
}

func (h *connHandler) beginRequest() {
	h.mu.Lock()
	h.inflight++
	// Requests in flight: the decode loop must be free to block in Recv
	// indefinitely (code pushes can legitimately arrive late).
	h.conn.SetReadDeadline(time.Time{})
	h.mu.Unlock()
}

// endRequest is beginRequest's counterpart, called by the worker. When the
// last in-flight request drains it re-arms the idle deadline directly on
// the conn — the decode loop may already be parked inside Recv with no
// deadline, and a deadline set here fires through that blocked read.
func (h *connHandler) endRequest() {
	h.mu.Lock()
	h.inflight--
	if h.inflight == 0 && h.s.opts.IdleTimeout > 0 {
		h.conn.SetReadDeadline(time.Now().Add(h.s.opts.IdleTimeout))
	}
	h.mu.Unlock()
}

// admit hands r to a request worker, which is the connection's admission
// control: there are at most PipelineDepth workers and each serves one
// request at a time, so with the pipeline full the decode loop blocks here
// until a worker comes free — or the server closes, reported as false.
// Workers start lazily (a connection that never has more than k requests in
// flight never has more than k) and then live as long as the connection, so
// a request lands on a goroutine whose stack the ones before it already
// grew.
func (h *connHandler) admit(r request) bool {
	select {
	case h.work <- r: // a parked worker took it
		return true
	default:
	}
	if h.nworkers < h.s.opts.PipelineDepth {
		h.nworkers++
		h.workers.Add(1)
		go h.worker()
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
	for r := range h.work {
		h.serveRequest(r.req, r.start)
		r.pin.Release()
		h.endRequest()
	}
}

// writer is the connection's single sender. On the first send failure it
// records the error, tears the connection down, and drains (discarding)
// the rest of the queue so workers never block on a dead writer.
//
// Sends coalesce: the connection buffers framed replies and the writer
// flushes only when the queue goes empty, so a burst of pipelined results
// leaves in one syscall instead of one per reply. Latency is observed at
// enqueue-to-kernel time as before; the flush it rides on is at most the
// encode time of the replies queued behind it away.
func (h *connHandler) writer() {
	defer close(h.writerDone)
	h.c.CoalesceSends()
	broken := false
	for m := range h.out {
		if broken {
			continue
		}
		var err error
		if m.isResult {
			err = h.s.sendResult(h.conn, h.c, &m.res)
		} else {
			err = h.s.send(h.conn, h.c, m.frame)
		}
		if err == nil && len(h.out) == 0 {
			err = h.c.FlushSend()
		}
		if err != nil {
			h.fail(err)
			broken = true
			continue
		}
		if !m.start.IsZero() {
			h.s.lat.Observe(time.Since(m.start))
			h.s.cResults.Inc()
			if m.span != nil {
				h.s.reg.ObserveSpan("server.stage.", m.span)
			}
		}
		if m.fatal != "" {
			h.fail(errors.New(m.fatal))
			broken = true
		}
	}
	if !broken {
		// The queue can close between a skipped flush and the next
		// receive; nothing pending survives past the loop.
		_ = h.c.FlushSend()
	}
}

// fail records the connection's first fatal error and closes the socket,
// which unblocks the decode loop's pending read. Safe from any goroutine.
func (h *connHandler) fail(err error) {
	h.errOnce.Do(func() {
		h.err = err
		h.conn.Close()
	})
}

func (h *connHandler) enqueueProtocolError(msg string) {
	h.out <- outMsg{
		frame: offload.Frame{Kind: offload.KindResult, Result: &offload.Result{
			Err: msg, Code: offload.CodeProtocol,
		}},
		fatal: msg,
	}
}

// codeMsg is one frame routed to a worker mid-code-exchange: either the
// code push itself or a chunk offer opening a delta push.
type codeMsg struct {
	push  offload.CodePush
	offer *offload.ChunkOffer
}

// routeCodeMsg hands a code-exchange frame to the worker waiting for it:
// by Seq when the frame carries one that matches a waiter, else to the
// oldest waiter (serial clients predate CodePush.Seq and leave it zero).
// Returns false when no worker is waiting for code at all.
func (h *connHandler) routeCodeMsg(seq int, msg codeMsg) bool {
	h.mu.Lock()
	ch, ok := h.codeWait[seq]
	if !ok {
		if len(h.codeFIFO) == 0 {
			h.mu.Unlock()
			return false
		}
		seq = h.codeFIFO[0]
		ch = h.codeWait[seq]
	}
	delete(h.codeWait, seq)
	h.dropCodeFIFO(seq)
	h.mu.Unlock()
	ch <- msg // buffered; never blocks
	return true
}

func (h *connHandler) dropCodeFIFO(seq int) {
	for i, s := range h.codeFIFO {
		if s == seq {
			h.codeFIFO = append(h.codeFIFO[:i], h.codeFIFO[i+1:]...)
			return
		}
	}
}

// registerCodeWait installs this worker as the receiver of the next
// code-exchange frame for seq. The waiter is registered before whatever
// frame prompts the device (NEED_CODE, or a chunk-need reply) is queued,
// so the device's answer can never race past it.
func (h *connHandler) registerCodeWait(seq int) (chan codeMsg, error) {
	ch := make(chan codeMsg, 1)
	h.mu.Lock()
	if _, dup := h.codeWait[seq]; dup {
		h.mu.Unlock()
		return nil, fmt.Errorf("realtime: duplicate in-flight seq %d awaiting code", seq)
	}
	h.codeWait[seq] = ch
	h.codeFIFO = append(h.codeFIFO, seq)
	h.mu.Unlock()
	return ch, nil
}

// waitCodeMsg blocks for the routed frame, bounded by the per-read
// timeout, the request's remaining wall budget, and the connection's life.
func (h *connHandler) waitCodeMsg(seq int, ch chan codeMsg, start time.Time) (codeMsg, error) {
	timeout, err := h.s.requestRead(start)
	if err != nil {
		h.cancelCodeWait(seq)
		return codeMsg{}, err
	}
	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case msg := <-ch:
		return msg, nil
	case <-timerC:
		h.cancelCodeWait(seq)
		return codeMsg{}, fmt.Errorf("realtime: timed out waiting for code push (seq %d)", seq)
	case <-h.connDone:
		h.cancelCodeWait(seq)
		return codeMsg{}, errors.New("realtime: connection closed during code transfer")
	}
}

// awaitCode asks the device for the mobile code and waits for its answer:
// the code push itself, or a chunk offer opening a delta push.
func (h *connHandler) awaitCode(seq int, aid string, start time.Time) (codeMsg, error) {
	ch, err := h.registerCodeWait(seq)
	if err != nil {
		return codeMsg{}, err
	}
	h.out <- outMsg{frame: offload.Frame{Kind: offload.KindNeedCode, NeedCode: &offload.NeedCode{Seq: seq, AID: aid}}}
	return h.waitCodeMsg(seq, ch, start)
}

func (h *connHandler) cancelCodeWait(seq int) {
	h.mu.Lock()
	delete(h.codeWait, seq)
	h.dropCodeFIFO(seq)
	h.mu.Unlock()
}

// requestRead caps an intra-request read by both the per-read timeout and
// the request's remaining wall-clock budget.
func (s *Server) requestRead(start time.Time) (time.Duration, error) {
	timeout := s.opts.ReadTimeout
	if s.opts.RequestTimeout > 0 {
		remaining := s.opts.RequestTimeout - time.Since(start)
		if remaining <= 0 {
			return 0, fmt.Errorf("realtime: request exceeded its %v budget", s.opts.RequestTimeout)
		}
		if timeout <= 0 || remaining < timeout {
			timeout = remaining
		}
	}
	return timeout, nil
}

// errorResult classifies a platform error into a typed Result frame so
// clients can distinguish retryable overload from permanent failures.
func errorResult(err error) offload.Result {
	res := offload.Result{Err: err.Error(), Code: offload.CodeInternal}
	var over *offload.OverloadedError
	switch {
	case errors.As(err, &over):
		res.Code = offload.CodeOverloaded
		res.RetryAfterMs = over.RetryAfter.Milliseconds()
	case errors.Is(err, core.ErrBlocked):
		res.Code = offload.CodeBlocked
	case errors.Is(err, cluster.ErrShardDown):
		// The shard crashed under the session; the membership has already
		// routed around it, so an immediate retry lands on a live shard.
		res.Code = offload.CodeOverloaded
	}
	return res
}

// serveRequest runs one request through the platform on a worker
// goroutine and queues its result for the writer. Engine-bound steps run
// as injected processes so runtime preparation and execution consume real
// (paced) time; protocol I/O happens through the decode loop and writer.
// When no code transfer is needed — the warehouse-hit fast path —
// prepare, execute, and release are batched into a single injected
// process, so the whole request costs one engine interaction instead of
// four. Request-fatal errors (code-exchange timeout, duplicate seq) tear
// the connection down via fail, matching the serial server's behavior.
func (h *connHandler) serveRequest(req offload.ExecRequest, start time.Time) {
	s := h.s
	key := dedupKey{dev: h.dev, aid: req.AID, seq: req.Seq}
	// Attach a request-scoped span: the platform records its dispatcher,
	// warehouse and runtime sub-stages (virtual time) into it, and the span
	// is folded into server.stage.* histograms once the result is sent.
	// Only this worker and processes injected on its behalf touch the span
	// (the driver serializes injected fns with happens-before on Do
	// boundaries, and the channel send to the writer orders the final fold),
	// so no lock is needed.
	sp := obs.NewSpan()
	req.SetSpan(sp)
	// Run the real computation here, on this worker goroutine, before
	// entering the serialized engine: apps are deterministic in the task
	// parameters, so the dispatch inside the driver charges the modeled
	// virtual cost and returns this result without holding every other
	// request's engine interaction hostage to the actual CPU work. This
	// also consumes req.Params before the worker's read-buffer pin could
	// matter to anyone downstream of the engine.
	req.SetPrecomputed(s.precompute(&req))
	// The connection's abort signal rides along so a teardown
	// mid-queue-wait cannot strand this worker (or a runtime slot).
	req.SetAbort(h.abort)
	var (
		sess    offload.Session
		prepErr error
		res     offload.Result
		execErr error
		fast    bool
	)
	// The cluster routes the request to the shard owning its AID, under
	// the driver — so the membership may change between requests — and the
	// session it returns stays pinned to that shard.
	s.drv.Do(h.procs.request, func(p *sim.Proc) {
		sess, prepErr = s.cl.Prepare(p, req)
		if prepErr != nil || sess.NeedCode() {
			return // code transfer needs protocol I/O; finish below
		}
		res, execErr = sess.Execute(p)
		if errors.Is(execErr, offload.ErrCodeNeeded) {
			return // re-claimed an aborted push; code exchange below
		}
		sess.Release()
		fast = true
	})
	if prepErr != nil {
		h.finishRequest(key, req.Seq, res, prepErr, start, sp)
		return
	}
	if fast {
		h.finishRequest(key, req.Seq, res, execErr, start, sp)
		return
	}

	// Slow path: the device must transfer the mobile code first — either
	// Prepare asked for it up front, or Execute re-claimed a push another
	// device abandoned. Every early return releases the session, so a
	// device that stalls mid-exchange cannot pin a runtime slot past the
	// code-wait timeout.
	released := false
	defer func() {
		if !released {
			s.drv.Do(h.procs.release, func(p *sim.Proc) { sess.Release() })
		}
	}()

	for {
		msg, err := h.awaitCode(req.Seq, req.AID, start)
		if err != nil {
			h.fail(err)
			return
		}
		// Delta-push negotiation: answer chunk offers with the warehouse's
		// missing set until the device sends the (delta or full) code frame.
		// The negotiated offer is remembered so the code frame that follows
		// stages chunks instead of a full blob.
		var negotiated *offload.ChunkOffer
		var negotiatedMissing []uint64
		for msg.offer != nil {
			var need offload.ChunkNeed
			var negErr error
			cs, chunked := sess.(offload.ChunkedSession)
			if chunked {
				s.drv.Do(h.procs.chunks, func(p *sim.Proc) {
					need, negErr = cs.NegotiateChunks(p, *msg.offer)
				})
			} else {
				need = offload.ChunkNeed{Seq: msg.offer.Seq, AID: msg.offer.AID}
			}
			if negErr != nil {
				h.finishRequest(key, req.Seq, res, negErr, start, sp)
				return
			}
			if need.Supported {
				negotiated = msg.offer
				negotiatedMissing = need.Missing
			}
			// Re-register before the need reply leaves: the device answers
			// it with the code frame, which must find a waiter.
			ch, rerr := h.registerCodeWait(req.Seq)
			if rerr != nil {
				h.fail(rerr)
				return
			}
			h.out <- outMsg{frame: offload.ChunkNeedFrame(&need)}
			msg, err = h.waitCodeMsg(req.Seq, ch, start)
			if err != nil {
				h.fail(err)
				return
			}
		}
		push := msg.push
		var pushErr error
		s.drv.Do(h.procs.push, func(p *sim.Proc) {
			if negotiated != nil {
				pushErr = sess.(offload.ChunkedSession).PushChunks(p, *negotiated, negotiatedMissing)
			} else {
				pushErr = sess.PushCode(p, push)
			}
		})
		if pushErr != nil {
			h.finishRequest(key, req.Seq, res, pushErr, start, sp)
			return
		}

		// Execute and release in one injected process.
		s.drv.Do(h.procs.exec, func(p *sim.Proc) {
			res, execErr = sess.Execute(p)
			if errors.Is(execErr, offload.ErrCodeNeeded) {
				return
			}
			sess.Release()
		})
		if !errors.Is(execErr, offload.ErrCodeNeeded) {
			released = true
			break
		}
	}
	h.finishRequest(key, req.Seq, res, execErr, start, sp)
}

// finishRequest stores a successful result in the idempotency window and
// queues the reply (typed error result on execErr) for the writer.
func (h *connHandler) finishRequest(key dedupKey, seq int, res offload.Result, execErr error, start time.Time, sp *obs.Span) {
	if execErr != nil {
		res = errorResult(execErr)
	}
	res.Seq = seq
	if execErr == nil {
		h.s.dedup.store(key, res)
	}
	h.out <- outMsg{res: res, isResult: true, start: start, span: sp}
}

// precompute executes the request's task for real, ahead of its engine
// dispatch, and packages the outcome for the runtime's short-circuit
// (workload.Registry.Execute). It runs on the request's worker goroutine,
// concurrently with every other request — the registry's apps are
// read-only after construction.
func (s *Server) precompute(req *offload.ExecRequest) *workload.Precomputed {
	m, err := s.wreg.Execute(req.Task())
	return &workload.Precomputed{Metrics: m, Err: err}
}

// dedupKey identifies a request for the idempotency window. A comparable
// struct (not a concatenated string) so lookup and store never allocate.
type dedupKey struct {
	dev, aid string
	seq      int
}

// dedupCache is a bounded map of completed results, FIFO-evicted. A nil
// cache (DedupWindow < 0) is inert. The order ring is pre-sized to the
// window capacity so store never grows it — both paths are zero-alloc
// (gated by TestDedupZeroAlloc).
type dedupCache struct {
	mu    sync.Mutex
	cap   int
	res   map[dedupKey]offload.Result
	order []dedupKey
	head  int
}

func newDedupCache(capacity int) *dedupCache {
	return &dedupCache{
		cap:   capacity,
		res:   make(map[dedupKey]offload.Result, capacity),
		order: make([]dedupKey, 0, capacity),
	}
}

func (dc *dedupCache) lookup(key dedupKey) (offload.Result, bool) {
	if dc == nil {
		return offload.Result{}, false
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	r, ok := dc.res[key]
	return r, ok
}

func (dc *dedupCache) store(key dedupKey, r offload.Result) {
	if dc == nil {
		return
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if _, exists := dc.res[key]; exists {
		dc.res[key] = r
		return
	}
	if len(dc.res) >= dc.cap {
		old := dc.order[dc.head]
		delete(dc.res, old)
		dc.order[dc.head] = key
		dc.head = (dc.head + 1) % dc.cap
	} else {
		dc.order = append(dc.order, key)
	}
	dc.res[key] = r
}
