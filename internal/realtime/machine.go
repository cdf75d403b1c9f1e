package realtime

import (
	"errors"
	"fmt"
	"log"
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

// The protocol's robustness envelope. No deployment sets these, so they are
// constants of the protocol rather than options.
const (
	// readTimeout bounds each intra-request read: the hello, and each wait
	// for a code push or chunk offer. It is the slow-loris guard: a device
	// that goes silent mid-exchange is cut off and its pinned runtime slot
	// released instead of the request waiting forever.
	readTimeout = 15 * time.Second
	// writeTimeout bounds each frame write (a device that stops draining
	// its socket).
	writeTimeout = 15 * time.Second
	// requestTimeout is one request's budget from exec-frame receipt; it
	// caps every code wait of the request.
	requestTimeout = 2 * time.Minute
	// dedupWindow is how many completed results the server remembers for
	// idempotent retries, keyed by (DeviceID, AID, Seq). A retry of a
	// request whose result was computed but lost in transit is answered from
	// this window without re-executing.
	dedupWindow = 256
)

// The two ways a code wait ends without a frame.
var (
	errCodeTimeout = errors.New("timed out waiting for code push")
	errConnClosed  = errors.New("connection closed during code transfer")
)

// transport is what the connection machine needs from the world it runs in.
// The TCP adapter (server.go) runs steps through the pacing Driver, waits on
// channels and wall timers, and sends frames on the emitting goroutine; the
// virtual adapter in virtual_test.go runs the same machine on a bare engine,
// with its deadlines as engine events.
type transport interface {
	// step runs fn as one engine step and returns once fn has returned.
	step(name string, fn func(*sim.Proc))
	// waitCode blocks until the code-exchange frame routed to ch arrives,
	// the deadline passes (errCodeTimeout) or the connection closes
	// (errConnClosed).
	waitCode(ch <-chan codeMsg, deadline time.Time) (codeMsg, error)
	// emit sends one frame. A message with fatal set tears the connection
	// down once everything emitted before it, and its own frame if any, has
	// been sent.
	emit(m outMsg)
}

// protocol is what every connection of one server shares: the cluster it
// serves, the idempotency window, the workload registry and the instruments.
type protocol struct {
	e     *sim.Engine
	cl    *cluster.Cluster
	log   *log.Logger
	depth int // requests one connection may have in flight
	dedup *dedupCache

	// wreg executes workloads ahead of dispatch, on the request's worker.
	// Apps are deterministic and their shared state is read-only after
	// construction, so one registry serves every worker concurrently; the
	// dispatch in the engine then returns the precomputed result instead of
	// computing under the serialized driver lock.
	wreg *workload.Registry

	// Counters are pre-resolved so the request path never touches the
	// registry's maps.
	reg *obs.Registry
	// lat is server.request_wall: one observation per exec request that
	// produced a result frame, from frame receipt to result send. Requests
	// cut off by timeouts or protocol violations are not observed — they
	// would poison the tail with connection-failure artifacts that are not
	// request latencies.
	lat        *metrics.LatencyHistogram
	cRequests  *obs.Counter // exec frames accepted
	cDedupHits *obs.Counter // requests answered from the idempotency window
	cResults   *obs.Counter // result frames sent (success or typed error)
}

func newProtocol(e *sim.Engine, cfg core.Config, shards, depth int, logger *log.Logger) *protocol {
	reg := obs.NewRegistry()
	cl := cluster.NewReplicated(e, cfg, shards, 1)
	cl.SetObs(reg)
	pr := &protocol{
		e:          e,
		cl:         cl,
		log:        logger,
		depth:      depth,
		dedup:      newDedupCache(dedupWindow),
		wreg:       workload.NewRegistry(),
		reg:        reg,
		lat:        metrics.NewLatencyHistogram(),
		cRequests:  reg.Counter("server.requests"),
		cDedupHits: reg.Counter("server.dedup_hits"),
		cResults:   reg.Counter("server.results"),
	}
	reg.RegisterHistogram("server.request_wall", pr.lat)
	return pr
}

// delivered accounts for a frame the transport has sent: a request's result
// is observed (latency, result count, its span folded into server.stage.*)
// only once it has actually left.
func (pr *protocol) delivered(m *outMsg, now time.Time) {
	if m.start.IsZero() {
		return
	}
	pr.lat.Observe(now.Sub(m.start))
	pr.cResults.Inc()
	if m.span != nil {
		pr.reg.ObserveSpan("server.stage.", m.span)
	}
}

// outMsg is one frame on its way out. Results travel by value (res and
// isResult) so the per-reply *Result never escapes to the heap; other frames
// (NEED_CODE, chunk needs, protocol errors) use the frame field.
type outMsg struct {
	frame    offload.Frame
	res      offload.Result
	isResult bool
	// start, when set, marks the frame as a request's result; see delivered.
	start time.Time
	span  *obs.Span
	// fatal, when non-empty, ends the connection after this message.
	fatal string
}

// request is one admitted exec frame on its way to a worker.
type request struct {
	req   offload.ExecRequest
	start time.Time
	pin   offload.RecvBuf // the read buffer req.Params aliases; the worker releases it
}

// codeMsg is one frame routed to a worker mid-code-exchange: either the code
// push itself or a chunk offer opening a delta push.
type codeMsg struct {
	push  offload.CodePush
	offer *offload.ChunkOffer
}

// machine is one device connection's protocol: every decision the server
// makes about a frame is made here, once, whichever transport carries it.
// The adapter reads frames through recv and admits the requests it returns
// to at most protocol.depth workers, each of which runs reqState.serve; it
// calls close once its reader has stopped. The machine makes no goroutine
// and touches no socket.
type machine struct {
	pr    *protocol
	t     transport        // the reader's: dedup hits and protocol errors leave through it
	clock func() time.Time // the transport's clock: wall or virtual

	dev  string
	name string // of every step the connection runs: "device:" + dev; empty until the hello
	// abort is fired when the connection tears down: any of its requests
	// still parked in a dispatcher wait ring returns ErrAborted instead of
	// eventually claiming a runtime for a device that is gone. Constructing
	// a Signal only records the engine pointer.
	abort *sim.Signal

	mu       sync.Mutex
	codeWait map[int]chan codeMsg // seq -> worker awaiting a push or chunk offer
	codeFIFO []int                // arrival order, for pushes without a Seq
}

func newMachine(pr *protocol, t transport, clock func() time.Time) *machine {
	return &machine{
		pr:       pr,
		t:        t,
		clock:    clock,
		abort:    sim.NewSignal(pr.e),
		codeWait: make(map[int]chan codeMsg),
	}
}

// recv reads the connection's next frame and decides what it means. An exec
// frame the idempotency window cannot answer comes back as a request to
// admit; code frames go to the worker waiting for them. A non-nil error ends
// the connection: a frame that breaks the protocol — including a first frame
// without the wire magic or at an unknown wire version — has been answered
// with a typed CodeProtocol frame first.
func (m *machine) recv(c *offload.Conn) (request, bool, error) {
	f, err := c.Recv()
	if err != nil {
		var wve *offload.WireVersionError
		if errors.As(err, &wve) {
			return request{}, false, m.violation(wve.Error())
		}
		return request{}, false, err
	}
	if m.name == "" {
		if f.Kind != offload.KindHello {
			return request{}, false, m.violation(fmt.Sprintf("realtime: expected hello, got %s", f.Kind))
		}
		m.dev, m.name = f.Hello.DeviceID, "device:"+f.Hello.DeviceID
		m.pr.log.Printf("device %s connected", m.dev)
		return request{}, false, nil
	}
	switch f.Kind {
	case offload.KindExec:
		req := *f.Exec
		req.DeviceID = m.dev
		start := m.clock()
		m.pr.cRequests.Inc()
		if res, ok := m.pr.dedup.lookup(dedupKey{dev: m.dev, aid: req.AID, seq: req.Seq}); ok {
			// Idempotent retry: answered inline, with no pipeline slot and no
			// re-execution.
			m.pr.cDedupHits.Inc()
			m.t.emit(outMsg{res: res, isResult: true, start: start})
			return request{}, false, nil
		}
		// req.Params aliases the codec's read buffer; take ownership so the
		// next Recv cannot recycle it under the worker.
		return request{req: req, start: start, pin: c.TakeRecvBuf()}, true, nil
	case offload.KindCode:
		if !m.route(f.Code.Seq, codeMsg{push: *f.Code}) {
			return request{}, false, m.violation("realtime: code frame with no code transfer pending")
		}
	case offload.KindChunkOffer:
		offer, err := offload.DecodeChunkOffer(f)
		if err != nil {
			return request{}, false, m.violation("realtime: " + err.Error())
		}
		if !m.route(offer.Seq, codeMsg{offer: &offer}) {
			return request{}, false, m.violation("realtime: chunk offer with no code transfer pending")
		}
	default:
		return request{}, false, m.violation(fmt.Sprintf("realtime: expected exec, got %s", f.Kind))
	}
	return request{}, false, nil
}

// violation tells the device why the server is hanging up — without this
// frame a misbehaving client sees only a reset and retries the same
// violation — and returns the error that ends the connection.
func (m *machine) violation(msg string) error {
	m.t.emit(farewell(msg))
	return errors.New(msg)
}

// farewell is the typed CodeProtocol frame that ends a connection.
func farewell(msg string) outMsg {
	return outMsg{
		frame: offload.Frame{Kind: offload.KindResult, Result: &offload.Result{Err: msg, Code: offload.CodeProtocol}},
		fatal: msg,
	}
}

// close is the machine's half of teardown, called once the reader has
// stopped and the adapter has made code waits fail: the abort signal
// releases requests parked in a dispatcher wait ring, which would otherwise
// wait for a runtime no release from this connection will ever free.
func (m *machine) close() {
	m.t.step(m.name, func(*sim.Proc) { m.abort.Fire() })
}

// route hands a code-exchange frame to the worker waiting for it: by Seq when
// the frame carries one that matches a waiter, else to the oldest waiter
// (serial clients leave CodePush.Seq zero). It reports false when no worker
// is waiting for code at all.
func (m *machine) route(seq int, msg codeMsg) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.codeWait[seq]
	if !ok {
		if len(m.codeFIFO) == 0 {
			return false
		}
		seq = m.codeFIFO[0]
		ch = m.codeWait[seq]
	}
	m.dropCodeWait(seq)
	ch <- msg // the waiter's buffered channel, now unregistered and empty: never blocks
	return true
}

// registerCodeWait installs ch, the worker's own, as the waiter for the next
// code-exchange frame for seq. It is registered before whatever frame
// prompts the device (NEED_CODE or a chunk-need reply) is emitted, so the
// answer can never race past it. A worker reuses its channel for every
// wait: route sends under m.mu to a waiter it unregisters in the same
// critical section, and a waiter that gives up unregisters and drains under
// m.mu too (giveUpCodeWait), so a frame routed to one wait is never read by
// the next.
func (m *machine) registerCodeWait(seq int, ch chan codeMsg) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.codeWait[seq]; dup {
		return fmt.Errorf("realtime: duplicate in-flight seq %d awaiting code", seq)
	}
	m.codeWait[seq] = ch
	m.codeFIFO = append(m.codeFIFO, seq)
	return nil
}

// giveUpCodeWait unregisters seq's waiter ch and drops a frame route sent
// it before the waiter gave up.
func (m *machine) giveUpCodeWait(seq int, ch chan codeMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.codeWait[seq] == ch {
		m.dropCodeWait(seq)
	}
	select {
	case <-ch:
	default:
	}
}

// dropCodeWait removes seq's waiter; m.mu must be held.
func (m *machine) dropCodeWait(seq int) {
	delete(m.codeWait, seq)
	for i, s := range m.codeFIFO {
		if s == seq {
			m.codeFIFO = append(m.codeFIFO[:i], m.codeFIFO[i+1:]...)
			return
		}
	}
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

// reqState is a worker's request in flight: the request and everything its
// engine steps hand back. A worker owns one for its life and reuses it, with
// the steps bound to it once, so serving a request boxes no captured local
// and builds no closure.
type reqState struct {
	m    *machine
	t    transport    // the worker's
	code chan codeMsg // every code wait of the worker's requests; capacity 1
	reqVars

	prepare, negotiate, push, execute, release func(*sim.Proc)
}

// reqVars is what one request sets; serve zeroes it for the next.
type reqVars struct {
	req   offload.ExecRequest
	key   dedupKey
	start time.Time
	sp    obs.Span // the request's stages; zeroed with the rest by serve
	pre   workload.Precomputed

	sess offload.Session
	res  offload.Result
	err  error // of the last step; the request's, once done
	done bool  // answered: Prepare failed, or the result is in res

	// The code exchange: the NEED_CODE frame's payload, the frame that
	// answered it, and the offer a delta push negotiated with what the
	// warehouse said it lacks.
	needCode   offload.NeedCode
	msg        codeMsg
	negotiated *offload.ChunkOffer
	missing    []uint64
	need       offload.ChunkNeed
}

func newReqState(m *machine, t transport) *reqState {
	st := &reqState{m: m, t: t, code: make(chan codeMsg, 1)}
	st.prepare = st.prepareStep
	st.negotiate = func(p *sim.Proc) {
		st.need, st.err = st.sess.NegotiateChunks(p, *st.msg.offer)
	}
	st.push = st.pushStep
	st.execute = st.executeStep
	st.release = func(*sim.Proc) { st.sess.Release() }
	return st
}

// serve runs one request through the platform and emits its result. Engine
// work runs as steps, so runtime preparation and execution take their
// virtual time; the code exchange waits on frames the reader routes. A
// warehouse hit is a single step: prepare, execute and release together.
func (st *reqState) serve(r request) {
	m := st.m
	st.reqVars = reqVars{req: r.req, start: r.start,
		key: dedupKey{dev: m.dev, aid: r.req.AID, seq: r.req.Seq}}
	// The platform records its dispatcher, warehouse and runtime sub-stages
	// (virtual time) into the request's span, folded into server.stage.*
	// when the result is sent, inside emit. Only this worker and the steps
	// it runs touch the span, so no lock is needed, and nothing reads it
	// once emit has returned: the next request reuses it.
	st.req.SetSpan(&st.sp)
	// Run the real computation here, before entering the serialized engine:
	// apps are deterministic in the task parameters, so the dispatch charges
	// the modeled virtual cost and returns this result. This also consumes
	// req.Params while the worker still pins the read buffer.
	st.pre.Metrics, st.pre.Err = m.pr.wreg.Execute(st.req.Task())
	st.req.SetPrecomputed(&st.pre)
	st.req.SetAbort(m.abort)
	st.t.step(m.name, st.prepare)
	if !st.done {
		if err := st.exchange(); err != nil {
			// A device that broke the protocol is told why; one that went
			// silent or away just loses the connection, which clients retry.
			end := outMsg{fatal: err.Error()}
			if !errors.Is(err, errCodeTimeout) && !errors.Is(err, errConnClosed) {
				end = farewell(err.Error())
			}
			st.t.emit(end)
			return
		}
	}
	res := st.res
	if st.err != nil {
		res = errorResult(st.err)
	}
	res.Seq = st.req.Seq
	st.t.emit(outMsg{res: res, isResult: true, start: st.start, span: &st.sp})
}

// exchange is the slow path: the device must transfer the mobile code first
// — Prepare asked for it, or Execute re-claimed a push another device
// abandoned. It returns an error only when the connection must go (the
// device stalled past its deadline or reused an in-flight seq, or the
// connection closed); a platform error ends just the request, in st.err.
// Either way the session is released, so a device that stalls mid-exchange
// cannot pin a runtime slot past its deadline.
func (st *reqState) exchange() error {
	m := st.m
	defer func() {
		if !st.done {
			st.t.step(m.name, st.release)
		}
	}()
	for !st.done {
		if err := m.registerCodeWait(st.req.Seq, st.code); err != nil {
			return err
		}
		st.needCode = offload.NeedCode{Seq: st.req.Seq, AID: st.req.AID}
		st.t.emit(outMsg{frame: offload.Frame{Kind: offload.KindNeedCode, NeedCode: &st.needCode}})
		var err error
		if st.msg, err = st.wait(); err != nil {
			return err
		}
		// Delta-push negotiation: answer chunk offers with the warehouse's
		// missing set until the device sends the (delta or full) code frame,
		// which then stages the negotiated chunks instead of a full blob.
		st.negotiated, st.missing = nil, nil
		for st.msg.offer != nil {
			if st.t.step(m.name, st.negotiate); st.err != nil {
				return nil
			}
			if st.need.Supported {
				st.negotiated, st.missing = st.msg.offer, st.need.Missing
			}
			if err = m.registerCodeWait(st.req.Seq, st.code); err != nil {
				return err
			}
			st.t.emit(outMsg{frame: offload.ChunkNeedFrame(&st.need)})
			if st.msg, err = st.wait(); err != nil {
				return err
			}
		}
		if st.t.step(m.name, st.push); st.err != nil {
			return nil
		}
		st.t.step(m.name, st.execute)
	}
	return nil
}

// wait bounds the worker's code wait by the read timeout and the request's
// budget.
func (st *reqState) wait() (codeMsg, error) {
	deadline := st.start.Add(requestTimeout)
	if d := st.m.clock().Add(readTimeout); d.Before(deadline) {
		deadline = d
	}
	msg, err := st.t.waitCode(st.code, deadline)
	if err != nil {
		st.m.giveUpCodeWait(st.req.Seq, st.code)
		return codeMsg{}, fmt.Errorf("realtime: seq %d: %w", st.req.Seq, err)
	}
	return msg, nil
}

// answered takes the request's reply from the idempotency window if it is
// there: a retry decoded while the original was still in flight must not
// execute again once the original's result is stored. Checked inside the
// engine steps, where results are also stored, so "in the window" and
// "executed" are ordered by the engine.
func (st *reqState) answered() bool {
	res, ok := st.m.pr.dedup.lookup(st.key)
	if ok {
		st.m.pr.cDedupHits.Inc()
		st.res, st.done = res, true
	}
	return ok
}

// prepareStep is the request's first engine step. The cluster routes the
// request to the shard owning its AID, under the driver — so the membership
// may change between requests — and the session it returns stays pinned to
// that shard. Without a code transfer to wait for (a warehouse hit) it
// executes and releases in the same step.
func (st *reqState) prepareStep(p *sim.Proc) {
	if st.answered() {
		return
	}
	st.sess, st.err = st.m.pr.cl.Prepare(p, st.req)
	if st.err != nil {
		st.done = true
		return
	}
	if !st.sess.NeedCode() {
		st.executeStep(p)
	}
}

func (st *reqState) pushStep(p *sim.Proc) {
	if st.negotiated != nil {
		st.err = st.sess.PushChunks(p, *st.negotiated, st.missing)
	} else {
		st.err = st.sess.PushCode(p, st.msg.push)
	}
}

// executeStep executes, stores a success in the idempotency window and
// releases, unless Execute re-claimed a push another device abandoned: then
// the code exchange runs again.
func (st *reqState) executeStep(p *sim.Proc) {
	if !st.answered() {
		st.res, st.err = st.sess.Execute(p)
		if errors.Is(st.err, offload.ErrCodeNeeded) {
			return
		}
		if st.err == nil {
			st.res.Seq = st.req.Seq
			st.m.pr.dedup.store(st.key, st.res)
		}
	}
	st.sess.Release()
	st.done = true
}

// dedupKey identifies a request for the idempotency window. A comparable
// struct (not a concatenated string) so lookup and store never allocate.
type dedupKey struct {
	dev, aid string
	seq      int
}

// dedupCache is a bounded map of completed results, FIFO-evicted. The order
// ring is pre-sized to the window capacity so store never grows it — both
// paths are zero-alloc (gated by TestDedupZeroAlloc).
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
	dc.mu.Lock()
	defer dc.mu.Unlock()
	r, ok := dc.res[key]
	return r, ok
}

func (dc *dedupCache) store(key dedupKey, r offload.Result) {
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
