package realtime

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// Protocol cases on the virtual transport: every deadline here is virtual,
// so each test pins exact instants and runs in milliseconds.

// halfPush writes the first half of a code frame for aid and seq: a device
// whose connection dies in the middle of its push.
func (d *vDev) halfPush(aid string, seq int) {
	var b bytes.Buffer
	offload.NewConn(&b).Send(codeFrame(aid, linpack, seq))
	fmt.Fprintf(&d.c.s.transcript, "%d > %x (cut)\n", d.c.s.e.Now(), b.Bytes()[:b.Len()/2])
	d.c.up.buf.Write(b.Bytes()[:b.Len()/2])
}

// TestKillConnectionMidPush: a connection that dies halfway through its code
// push executes nothing, leaves no runtime claimed and no code in the
// warehouse, and the next device for the same app is asked for the code
// again and served.
func TestKillConnectionMidPush(t *testing.T) {
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 1)
	pl := s.pr.cl.Shard(0)
	aid := execFrame(linpack, 0).Exec.AID
	s.at(0, "cut", func(p *sim.Proc) {
		d := s.connect(p, "cut")
		d.send(execFrame(linpack, 0))
		if f, err := d.recv(); err != nil || f.Kind != offload.KindNeedCode {
			t.Errorf("expected NEED_CODE, got %v / %v", f.Kind, err)
		}
		d.halfPush(aid, 0)
		d.hangUp()
	})
	s.at(time.Minute, "next", func(p *sim.Proc) {
		if n := pl.DB().StateCount(core.LifecycleActive); n != 0 {
			t.Errorf("%d runtimes still claimed after the cut push", n)
		}
		if entries, _, _ := pl.Warehouse().Stats(); entries != 0 {
			t.Errorf("warehouse holds %d entries from a push that never arrived", entries)
		}
		d := s.connect(p, "next")
		defer d.hangUp()
		res, needed, err := d.offload(linpack, 1)
		if err != nil || res.Err != "" || !needed {
			t.Errorf("next device: %+v needed=%v err=%v, want a served request that pushed the code", res, needed, err)
		}
	})
	s.run()
	if n := pl.DB().Snapshot().TotalExec; n != 1 {
		t.Fatalf("%d executions, want only the next device's", n)
	}
}

// TestDuplicateInFlightSeq: a device that sends the same Seq again before
// the first has been answered gets two answers from one execution when the
// duplicate waits for a pipeline slot: by the time it reaches the engine the
// original's result is in the idempotency window, which answers it. (With
// a free slot both run at once; neither then executes with the other's
// result in the window, which is all the window promises.)
func TestDuplicateInFlightSeq(t *testing.T) {
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 1)
	s.at(0, "dup", func(p *sim.Proc) {
		d := s.connect(p, "dup")
		defer d.hangUp()
		if res, _, err := d.offload(linpack, 0); err != nil || res.Err != "" {
			t.Errorf("warm-up: %+v, %v", res, err)
		}
		exec := execFrame(linpack, 7)
		d.send(exec)
		d.send(exec)
		var outputs []string
		for len(outputs) < 2 {
			f, err := d.recv()
			if err != nil || f.Kind != offload.KindResult || f.Result.Seq != 7 || f.Result.Err != "" {
				t.Errorf("after %d answers: %+v, %v", len(outputs), f, err)
				return
			}
			outputs = append(outputs, f.Result.Output)
		}
		if outputs[0] != outputs[1] {
			t.Errorf("the two answers differ: %q", outputs)
		}
	})
	s.run()
	if n, hits := s.pr.cl.Shard(0).DB().Snapshot().TotalExec, s.pr.cDedupHits.Value(); n != 2 || hits != 1 {
		t.Fatalf("%d executions and %d window answers, want 2 (seqs 0 and 7) and 1", n, hits)
	}
}

// TestSilentAfterNeedCode: with two requests in flight, one silent after
// its NEED_CODE and one served from the warehouse, the served result still
// reaches the device, and the silent one ends the connection exactly
// readTimeout after its NEED_CODE.
func TestSilentAfterNeedCode(t *testing.T) {
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 2)
	s.at(0, "warm", func(p *sim.Proc) {
		d := s.connect(p, "warm")
		defer d.hangUp()
		d.offload(linpack, 0)
	})
	var needAt, cutAt sim.Time
	var frames []string
	s.at(time.Minute, "silent", func(p *sim.Proc) {
		d := s.connect(p, "silent")
		defer d.hangUp()
		d.send(execFrame(chess, 1))
		if f, err := d.recv(); err != nil || f.Kind != offload.KindNeedCode {
			t.Errorf("expected NEED_CODE, got %v / %v", f.Kind, err)
			return
		}
		needAt = p.E.Now()
		d.send(execFrame(linpack, 2))
		for {
			f, err := d.recv()
			if err != nil {
				break
			}
			desc := string(f.Kind)
			if f.Result != nil {
				desc = fmt.Sprintf("%s seq=%d code=%s", f.Kind, f.Result.Seq, f.Result.Code)
			}
			frames = append(frames, desc)
		}
		cutAt = p.E.Now()
	})
	s.run()
	want := []string{"result seq=2 code="}
	if fmt.Sprint(frames) != fmt.Sprint(want) {
		t.Fatalf("frames after NEED_CODE: %q, want %q", frames, want)
	}
	if got := cutAt - needAt; got != sim.Time(readTimeout) {
		t.Fatalf("connection cut %v after NEED_CODE, want %v", got, readTimeout)
	}
}

// TestRequestBudgetBoundsCodeExchange: a device that keeps each read inside
// readTimeout but never finishes its push — an endless chunk negotiation —
// is cut off at the request's budget, requestTimeout after its exec frame.
func TestRequestBudgetBoundsCodeExchange(t *testing.T) {
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 1)
	var execAt, cutAt sim.Time
	s.at(0, "stall", func(p *sim.Proc) {
		d := s.connect(p, "stall")
		defer d.hangUp()
		exec := execFrame(linpack, 0)
		execAt = p.E.Now()
		d.send(exec)
		// A second proc re-offers the chunks every readTimeout - 1s while
		// this one reads.
		app, _ := workload.ByName(linpack)
		offer := offload.ChunkOffer{AID: exec.Exec.AID, App: linpack, Size: app.CodeSize(),
			Hashes: offload.SyntheticManifest(linpack, app.CodeSize())}
		s.e.Spawn("offers", func(p *sim.Proc) {
			for {
				p.Sleep(readTimeout - time.Second)
				if d.send(offload.ChunkOfferFrame(&offer)) != nil {
					return
				}
			}
		})
		for {
			if f, err := d.recv(); err != nil || f.Kind == offload.KindResult {
				break
			}
		}
		cutAt = p.E.Now()
	})
	s.run()
	if got := cutAt - execAt; got != sim.Time(requestTimeout) {
		t.Fatalf("stalling device cut off %v after its exec frame, want the %v budget", got, requestTimeout)
	}
}

// devOp is one step of a device's random plan.
type devOp struct {
	kind   byte // 'r' requests on the connection, 'x' one exec then hang up, 'c' reconnect first
	think  time.Duration
	seqs   []int
	aids   []int
	answer byte // to NEED_CODE: 'p' push, 'o' chunk offer then push, 's' silence, 'h' hang up, 'k' half a push
}

var propertyAIDs = func() []string {
	aid := execFrame(linpack, 0).Exec.AID
	return []string{aid, aid + "#b"}
}()

// cheapExec is a Linpack request of order 8, keyed by seq and aid.
func cheapExec(aid string, seq int) offload.Frame {
	return offload.Frame{Kind: offload.KindExec, Exec: &offload.ExecRequest{
		AID: aid, App: linpack, Method: "solve", Seq: seq,
		Params: workload.EncodeLinpackParams(int64(seq), 8), ParamBytes: 500,
	}}
}

func planDevice(rng *rand.Rand, depth int) []devOp {
	ops := make([]devOp, 2+rng.Intn(4))
	for i := range ops {
		op := devOp{kind: "rrrxc"[rng.Intn(5)], think: time.Duration(rng.Intn(20)) * time.Second}
		// Up to one request past the server's depth: the one the reader
		// parks on admission while code pushes go unread behind it.
		n := 1
		if op.kind != 'x' {
			n = 1 + rng.Intn(depth+1)
		}
		for j := 0; j < n; j++ {
			op.seqs = append(op.seqs, rng.Intn(4))
			op.aids = append(op.aids, rng.Intn(len(propertyAIDs)))
		}
		op.answer = "pppposshk"[rng.Intn(9)]
		ops[i] = op
	}
	return ops
}

// play runs a device's plan, reading every frame the server sends.
func play(s *vServer, p *sim.Proc, dev string, ops []devOp) {
	var d *vDev
	for _, op := range ops {
		p.Sleep(op.think)
		if d != nil && op.kind == 'c' {
			d.hangUp()
			d = nil
		}
		if d == nil {
			d = s.connect(p, dev)
		}
		for j, seq := range op.seqs {
			d.send(cheapExec(propertyAIDs[op.aids[j]], seq))
		}
		if op.kind == 'x' || !d.answer(len(op.seqs), op.answer) {
			d.hangUp()
			d = nil
		}
	}
	if d != nil {
		d.hangUp()
	}
}

// answer reads frames until results have come back, answering each
// NEED_CODE as told. It reports false once the connection is gone or the
// device has dropped it.
func (d *vDev) answer(results int, how byte) bool {
	app, _ := workload.ByName(linpack)
	for results > 0 {
		f, err := d.recv()
		if err != nil {
			return false
		}
		switch f.Kind {
		case offload.KindNeedCode:
			need := *f.NeedCode
			switch how {
			case 'p':
				d.send(codeFrame(need.AID, linpack, need.Seq))
			case 'o':
				offer := offload.ChunkOffer{AID: need.AID, App: linpack, Size: app.CodeSize(), Seq: need.Seq,
					Hashes: offload.SyntheticManifest(linpack, app.CodeSize())}
				d.send(offload.ChunkOfferFrame(&offer))
			case 'h':
				return false
			case 'k':
				d.halfPush(need.AID, need.Seq)
				return false
			}
		case offload.KindChunkNeed:
			need, _ := offload.DecodeChunkNeed(f)
			d.send(codeFrame(need.AID, linpack, need.Seq))
		case offload.KindResult:
			if f.Result.Code == offload.CodeProtocol {
				return false
			}
			results--
		}
	}
	return true
}

func runPlans(t *testing.T, seed int64) *vServer {
	rng := rand.New(rand.NewSource(seed))
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.MaxRuntimes = 1 + rng.Intn(3)
	s := newVServer(t, seed, cfg, 1+rng.Intn(3))
	for i := 0; i < 2+rng.Intn(3); i++ {
		dev, ops := fmt.Sprintf("dev-%d", i), planDevice(rng, s.pr.depth)
		s.at(time.Duration(rng.Intn(1000))*time.Millisecond, dev, func(p *sim.Proc) { play(s, p, dev, ops) })
	}
	s.run()
	return s
}

// TestPropertyExactlyOnceAndNoLeaks runs 200 seeded random plans — devices
// that retry seqs, pipeline past the server's depth, reuse in-flight seqs,
// delta-push, fall silent, hang up and die mid-push — and checks two
// properties on each (vServer.run and vPort.step):
//   - a (DeviceID, AID, Seq) whose result is in the idempotency window does
//     not execute again;
//   - after teardown no runtime is claimed, no request queued, no slot or
//     code waiter held, and sim.LiveProcs is 0.
func TestPropertyExactlyOnceAndNoLeaks(t *testing.T) {
	hits := int64(0)
	for seed := int64(0); seed < 200; seed++ {
		s := runPlans(t, seed)
		hits += s.pr.cDedupHits.Value()
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
	if hits == 0 {
		t.Fatal("no request was answered from the window: the plans never retry")
	}
}

// TestVirtualRunsReplayByteForByte: the same seed gives the same frames, in
// both directions, at the same virtual instants.
func TestVirtualRunsReplayByteForByte(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a, b := runPlans(t, seed).transcript.String(), runPlans(t, seed).transcript.String()
		if a != b {
			t.Fatalf("seed %d: two runs wrote different transcripts (%d and %d bytes)", seed, len(a), len(b))
		}
		if a == runPlans(t, seed+1000).transcript.String() {
			t.Fatalf("seed %d: the transcript does not depend on the seed", seed)
		}
	}
}

// warehouseHitAllocs is what one warehouse hit allocates served end to end
// through a worker's reqState: Linpack's output string, the result's, which
// outlives the step that makes it. It was 3 while serve made a span per
// request. It was 2 until the core session became a value in its runtime's
// slot.
const warehouseHitAllocs = 1

// TestWarehouseHitAllocs fences a warm request on the virtual transport:
// decode to result frame minus the read, on one worker's reqState, with the
// result encoded and delivered (latency, span fold). The frames go to a
// discarding codec, as the fence counts the server alone. Under the race
// detector sync.Pool drops Puts at random, so the fence skips.
func TestWarehouseHitAllocs(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 1)
	c := &vConn{s: s, sc: offload.NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), io.Discard})}
	c.m = newMachine(s.pr, nil, s.now)
	c.m.dev, c.m.name = "probe-dev", "device:probe-dev"
	app, _ := workload.ByName(workload.NameLinpack)
	req := offload.ExecRequest{AID: offload.AID(app.Name(), app.CodeSize()), App: app.Name(), Method: "solve",
		Params: workload.EncodeLinpackParams(42, 8), ParamBytes: 500}
	var allocs float64
	s.e.Spawn("worker", func(p *sim.Proc) {
		// The first request boots a runtime and stages the code; every
		// later one is a warehouse hit on the runtime it left idle.
		sess, err := s.pr.cl.Prepare(p, req)
		if err == nil && sess.NeedCode() {
			err = sess.PushCode(p, offload.CodePush{AID: req.AID, App: req.App, Size: app.CodeSize()})
		}
		if err == nil {
			_, err = sess.Execute(p)
			sess.Release()
		}
		if err != nil {
			t.Error(err)
			return
		}
		w := &vPort{c: c, p: p}
		c.m.t, w.st = w, newReqState(c.m, w)
		serve := func() {
			req.Seq++
			w.st.serve(request{req: req, start: s.now()})
			if w.st.err != nil || w.st.res.Err != "" {
				t.Errorf("seq %d: %v %q", req.Seq, w.st.err, w.st.res.Err)
			}
		}
		serve() // grows what stays grown: the window, the stage histograms
		allocs = testing.AllocsPerRun(500, serve)
	})
	s.e.Run()
	if allocs > warehouseHitAllocs {
		t.Fatalf("a warehouse hit allocates %.1f objects, fence is %d (the session and the Linpack output)", allocs, warehouseHitAllocs)
	}
	t.Logf("a warehouse hit allocates %.1f objects", allocs)
}

// coldExchangeAllocs is what the cold code exchange allocates between a
// device's PipelineClient and a worker's reqState, platform aside: the exec
// frame, the NEED_CODE frame, the code frame that answers it and the result
// frame. It was 2 while the NEED_CODE payload and the client's CodePush
// were built per exchange; the worker's reqState and the client now own
// them.
const coldExchangeAllocs = 0

// TestColdExchangeAllocs fences the cold exchange on the virtual transport:
// a device proc runs a PipelineClient and a server proc a worker's reqState
// over in-memory links, and every exec is answered with NEED_CODE. The
// session under the worker wants the code every time and does nothing with
// it, so the count is the protocol's alone. Under the race detector
// sync.Pool drops Puts at random (the pinned read buffers), so the fence
// skips.
func TestColdExchangeAllocs(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	s := newVServer(t, 1, core.DefaultConfig(core.KindRattrap), 1)
	up, down := &procLink{}, &procLink{}
	sc := offload.NewConn(struct {
		io.Reader
		io.Writer
	}{up, down})
	m := newMachine(s.pr, nil, s.now)
	sess := &codeOnlySession{res: offload.Result{Output: "ok"}}
	s.e.Spawn("server", func(p *sim.Proc) {
		up.reader = p
		port := &exchangePort{p: p, sc: sc, m: m}
		m.t = port
		st := newReqState(m, port)
		for {
			r, admit, err := m.recv(sc)
			if err != nil {
				return // the device hung up
			}
			if !admit {
				continue // the hello
			}
			st.reqVars = reqVars{req: r.req, start: r.start,
				key: dedupKey{dev: m.dev, aid: r.req.AID, seq: r.req.Seq}}
			st.sess = sess
			if err := st.exchange(); err != nil || st.err != nil {
				t.Errorf("seq %d: %v %v", r.req.Seq, err, st.err)
				return
			}
			st.res.Seq = st.req.Seq
			port.emit(outMsg{res: st.res, isResult: true})
			r.pin.Release()
		}
	})
	app, _ := workload.ByName(workload.NameLinpack)
	req := offload.ExecRequest{AID: offload.AID(app.Name(), app.CodeSize()), App: app.Name(), Method: "solve",
		Params: workload.EncodeLinpackParams(42, 8), ParamBytes: 500}
	var allocs float64
	s.e.Spawn("device", func(p *sim.Proc) {
		down.reader = p
		results := 0
		pc := offload.NewPipelineClient(offload.NewConn(struct {
			io.Reader
			io.Writer
		}{down, up}), 1, func(need offload.NeedCode) (offload.CodePush, error) {
			return offload.CodePush{AID: need.AID, App: app.Name(), Size: app.CodeSize()}, nil
		}, func(res offload.Result) {
			if res.Output == "ok" {
				results++
			}
		})
		exchange := func() {
			req.Seq++
			if err := pc.Submit(req); err != nil {
				t.Error(err)
			} else if err := pc.Flush(); err != nil {
				t.Error(err)
			}
		}
		if pc.Hello("probe-dev") == nil {
			exchange() // grows what stays grown: the window, the code-wait table
			allocs = testing.AllocsPerRun(200, exchange)
		}
		up.hangUp()
		if results != 202 || sess.pushes != 202 {
			t.Errorf("%d results and %d code pushes for 202 cold exchanges", results, sess.pushes)
		}
	})
	s.e.Run()
	t.Logf("a cold exchange allocates %.1f objects", allocs)
	if allocs > coldExchangeAllocs {
		t.Fatalf("a cold exchange allocates %.1f objects, fence is %d", allocs, coldExchangeAllocs)
	}
}

// codeOnlySession is a session that wants the code every time, counts the
// pushes and answers Execute with res: the cold exchange with no platform
// under it.
type codeOnlySession struct {
	res    offload.Result
	pushes int
}

func (s *codeOnlySession) NeedCode() bool { return true }
func (s *codeOnlySession) PushCode(*sim.Proc, offload.CodePush) error {
	s.pushes++
	return nil
}
func (s *codeOnlySession) NegotiateChunks(*sim.Proc, offload.ChunkOffer) (offload.ChunkNeed, error) {
	return offload.ChunkNeed{}, nil
}
func (s *codeOnlySession) PushChunks(*sim.Proc, offload.ChunkOffer, []uint64) error { return nil }
func (s *codeOnlySession) Execute(*sim.Proc) (offload.Result, error)                { return s.res, nil }
func (s *codeOnlySession) Release()                                                 {}

// exchangePort is the machine's transport for the exchange fence: steps
// run on the server's proc, frames leave on its codec, and a code wait
// reads the device's next frame itself, as the connection's reader would.
type exchangePort struct {
	p  *sim.Proc
	sc *offload.Conn
	m  *machine
}

func (w *exchangePort) step(_ string, fn func(*sim.Proc)) { fn(w.p) }

func (w *exchangePort) emit(m outMsg) {
	if m.isResult {
		_ = w.sc.SendResult(&m.res)
	} else if m.frame.Kind != "" {
		_ = w.sc.Send(m.frame)
	}
}

func (w *exchangePort) waitCode(ch <-chan codeMsg, _ time.Time) (codeMsg, error) {
	for {
		select {
		case msg := <-ch:
			return msg, nil
		default:
		}
		if _, _, err := w.m.recv(w.sc); err != nil {
			return codeMsg{}, err
		}
	}
}

// procLink is one direction of an in-memory connection read by a proc: a
// read of an empty link parks the reader until the other side writes or
// hangs up. Its signal is re-armed for every wait, so waiting allocates
// nothing.
type procLink struct {
	buf    bytes.Buffer
	reader *sim.Proc
	ready  sim.Signal
	parked bool
	closed bool
}

func (l *procLink) Read(b []byte) (int, error) {
	for l.buf.Len() == 0 {
		if l.closed {
			return 0, io.EOF
		}
		l.ready.Init(l.reader.E)
		l.parked = true
		l.reader.Wait(&l.ready)
	}
	return l.buf.Read(b)
}

func (l *procLink) Write(b []byte) (int, error) {
	l.buf.Write(b)
	l.wake()
	return len(b), nil
}

func (l *procLink) hangUp() {
	l.closed = true
	l.wake()
}

func (l *procLink) wake() {
	if l.parked {
		l.parked = false
		l.ready.Fire()
	}
}

// poolKeeps reports whether sync.Pool hands back what was put: under the
// race detector it drops Puts at random.
func poolKeeps() bool {
	var pool sync.Pool
	for i := 0; i < 64; i++ {
		if pool.Put(new(int)); pool.Get() == nil {
			return false
		}
	}
	return true
}
