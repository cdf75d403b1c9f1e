package main

// adapter.go is the only file of the benchmark that imports rattrap/internal
// packages. Everything else talks to the layers through the functions and
// types declared here, so a later refactor of the program under test has one
// file to read when an exported name moves. The surface it uses is listed in
// README.md ("Import surface").

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"rattrap/internal/cluster"
	"rattrap/internal/core"
	simdevice "rattrap/internal/device"
	"rattrap/internal/host"
	"rattrap/internal/metrics"
	"rattrap/internal/netsim"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/realtime"
	"rattrap/internal/scenario"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// unpacedSpeed scales virtual time so far down that the modelled cost of a
// request (boot, transfer, execute) is nanoseconds of wall time: what a
// tcp-* workload measures is this repository's software, not the model.
const unpacedSpeed = 1e6

// warmOrder is the Linpack order of the warm and cold workloads' request:
// small enough that the computation is a floor, not the subject.
const warmOrder = 8

// coldWarehouse bounds tcp-cold's warehouse to about a hundred Linpack blobs.
const coldWarehouse = 16 * host.MB

// verifyEvery is how many tcp-compute tasks share one verified output: about
// one in sixteen, and coprime to the four apps so that every app is verified.
const verifyEvery = 17

type requestKind int

const (
	kindWarm    requestKind = iota // one Linpack order-8 request, one AID
	kindCompute                    // seeded tasks round-robin over the four apps
	kindCold                       // the warm request under a never-seen AID each time
)

// server is an in-process realtime.Server on a loopback listener.
type server struct {
	srv    *realtime.Server
	ln     net.Listener
	served chan error
}

func startServer(depth int, cold bool) (*server, error) {
	cfg := core.DefaultConfig(core.KindRattrap)
	if cold {
		cfg.IdleTimeout = time.Nanosecond // virtual: every release is followed by a reap
		// A bounded warehouse makes the cold path a steady state (one
		// eviction per push once full) instead of a run-length-dependent
		// climb: the warm-up fills it before the first window.
		cfg.WarehouseCapacity = coldWarehouse
	}
	srv := realtime.NewServerOpts(cfg, unpacedSpeed, nil, realtime.Options{PipelineDepth: depth})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, ln: ln, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ln) }()
	return s, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

// close stops the server and waits for its accept loop and handlers.
func (s *server) close() error {
	s.srv.Close()
	s.ln.Close()
	return <-s.served
}

// serverCounts are the server-side instruments a run reads, by name.
type serverCounts struct {
	requests, results, dedupHits          int64
	boots, templateClones                 int64
	whHits, whMisses                      int64
	affinityHits, queued, overloadRejects int64
	executes, timerWakeups                int64
	wallP50, wallP99, queueWaitP50        time.Duration
}

func (s *server) counts() serverCounts {
	snap := s.srv.Metrics().Snapshot()
	c := snap.Counters
	wall := snap.Histograms["server.request_wall"]
	return serverCounts{
		requests:        c["server.requests"],
		results:         c["server.results"],
		dedupHits:       c["server.dedup_hits"],
		boots:           c["dispatch.boots"],
		templateClones:  c["dispatch.template_clones"],
		whHits:          c["warehouse.hits"],
		whMisses:        c["warehouse.misses"],
		affinityHits:    c["dispatch.affinity_hits"],
		queued:          c["dispatch.queued"],
		overloadRejects: c["dispatch.overload_rejects"],
		executes:        c["core.executes"],
		timerWakeups:    s.srv.Driver().TimerWakeups(),
		wallP50:         time.Duration(wall.P50Ns),
		wallP99:         time.Duration(wall.P99Ns),
		queueWaitP50:    time.Duration(snap.Histograms["stage.prepare/queue_wait"].P50Ns),
	}
}

// registry is the benchmark's own app table, built once: constructing the
// four apps (the virus-scan automaton above all) costs tens of milliseconds,
// which is the benchmark's cost and must not be billed to every set-up.
var registry = sync.OnceValue(workload.NewRegistry)

// appNames is the round-robin order of tcp-compute, the paper's order.
var appNames = []string{workload.NameOCR, workload.NameChess, workload.NameVirusScan, workload.NameLinpack}

// pooledTask is one pre-generated request and, when verified, the output the
// benchmark computed for it during set-up.
type pooledTask struct {
	exec     offload.ExecRequest
	codeSize host.Bytes
	want     string
}

// device is one closed-loop connection: an offload.PipelineClient on the
// binary wire cycling through its own seeded pool of requests.
type device struct {
	id    string
	idx   int
	kind  requestKind
	depth int
	pool  []pooledTask
	// onResult receives every result: its request's seq and whether it was
	// error-free and (where an output was precomputed) correct.
	onResult func(seq int, ok bool)

	conn net.Conn
	pc   *offload.PipelineClient
}

// newDevice draws the device's request pool from seed and computes the
// expected outputs with the benchmark's own registry (Registry.Execute on
// the same task the server will see).
func newDevice(kind requestKind, idx int, seed int64, depth, poolSize int) (*device, error) {
	d := &device{id: fmt.Sprintf("bench-dev-%d", idx), idx: idx, kind: kind, depth: depth}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
	reg := registry()
	if kind != kindCompute {
		poolSize = 1
	}
	for i := 0; i < poolSize; i++ {
		name := workload.NameLinpack
		if kind == kindCompute {
			name = appNames[i%len(appNames)]
		}
		app, err := reg.Get(name)
		if err != nil {
			return nil, err
		}
		task := workload.Task{
			App: name, Method: "solve", ParamBytes: 500,
			Params: workload.EncodeLinpackParams(rng.Int63(), warmOrder),
		}
		if kind == kindCompute {
			task = app.NewTask(rng, i)
		}
		pt := pooledTask{codeSize: app.CodeSize(), exec: offload.ExecRequest{
			DeviceID: d.id, AID: offload.AID(app.Name(), app.CodeSize()),
			App: task.App, Method: task.Method, Params: task.Params,
			ParamBytes: task.ParamBytes, FileBytes: task.FileBytes,
			RoundTrips: task.RoundTrips, InteractBytes: task.InteractBytes,
		}}
		if i%verifyEvery == 0 {
			m, err := reg.Execute(task)
			if err != nil {
				return nil, fmt.Errorf("precomputing %s task %d: %w", task.App, i, err)
			}
			pt.want = m.Output
		}
		d.pool = append(d.pool, pt)
	}
	return d, nil
}

// coldSize gives request seq a code size, and so an AID, no other request of
// the run has.
func (d *device) coldSize(seq int) host.Bytes {
	return d.pool[0].codeSize + host.Bytes(1+seq*connections+d.idx)
}

// connect dials the server and says hello. wrap, when non-nil, is put
// between the socket and the codec (the traced run times reads and writes).
func (d *device) connect(addr string, wrap func(net.Conn) io.ReadWriter) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	d.conn = conn
	var rw io.ReadWriter = conn
	if wrap != nil {
		rw = wrap(conn)
	}
	d.pc = offload.NewPipelineClient(offload.NewConnWire(rw, offload.WireBinary), d.depth,
		func(need offload.NeedCode) (offload.CodePush, error) {
			t := &d.pool[need.Seq%len(d.pool)]
			size := t.codeSize
			if d.kind == kindCold {
				size = d.coldSize(need.Seq)
			}
			return offload.CodePush{AID: need.AID, App: t.exec.App, Size: size}, nil
		},
		func(res offload.Result) {
			want := d.pool[res.Seq%len(d.pool)].want
			ok := res.Err == "" && res.Code == "" && (want == "" || res.Output == want)
			d.onResult(res.Seq, ok)
		})
	return d.pc.Hello(d.id)
}

// submit sends request seq, first waiting (and handling results) until the
// pipeline has room. seq must be unique per device: it is half the server's
// idempotency key.
func (d *device) submit(seq int) error {
	req := d.pool[seq%len(d.pool)].exec
	req.Seq = seq
	if d.kind == kindCold {
		req.AID = offload.AID(req.App, d.coldSize(seq))
	}
	return d.pc.Submit(req)
}

func (d *device) flush() error { return d.pc.Flush() }

func (d *device) close() {
	if d.conn != nil {
		d.conn.Close()
	}
}

// simOutcome is what one scenario run reports, read from scenario.Report.
type simOutcome struct {
	declared, arrivals, succeeded int
	retries, overloads            int
	virtP50Ms, virtP99Ms          float64
	whHits, whMisses              int
	entriesMoved, repaired        int
	deltaBytes, fullBytes         int64
	failedAssertions              []string
	report                        []byte // the report as JSON, for the byte-identity check
}

// simPlan is a decoded scenario ready to run any number of times.
type simPlan struct {
	scn *scenario.Scenario
}

// planScenario decodes scenario YAML and overrides its seed.
func planScenario(yaml []byte, seed int64) (*simPlan, error) {
	scn, err := scenario.Decode(yaml)
	if err != nil {
		return nil, err
	}
	scn.Seed = seed
	return &simPlan{scn: scn}, nil
}

// shrunk is the same scenario with every cohort's fleet divided by k (the
// warm-up and -smoke run miniatures).
func (pl *simPlan) shrunk(k int) *simPlan {
	scn := *pl.scn
	scn.Fleet = append([]scenario.CohortSpec(nil), scn.Fleet...)
	for i := range scn.Fleet {
		c := &scn.Fleet[i]
		if c.Devices /= k; c.Devices < 1 {
			c.Devices = 1
		}
	}
	return &simPlan{scn: &scn}
}

func (pl *simPlan) run() (simOutcome, error) {
	rep, err := scenario.Run(pl.scn)
	if err != nil {
		return simOutcome{}, err
	}
	out := simOutcome{
		arrivals:  rep.Totals.Arrivals,
		succeeded: rep.Totals.Succeeded,
		retries:   rep.Totals.Retries,
		overloads: rep.Totals.Overloads,
		virtP50Ms: rep.Totals.P50Ms,
		virtP99Ms: rep.Totals.P99Ms,
		whHits:    rep.Pool.WarehouseHits,
		whMisses:  rep.Pool.WarehouseMisses,
	}
	for _, c := range pl.scn.Fleet {
		out.declared += c.Devices * c.RequestsPerDevice
	}
	if rs := rep.Resharding; rs != nil {
		out.entriesMoved, out.repaired = rs.EntriesMoved, rs.Repaired
		out.deltaBytes, out.fullBytes = rs.DeltaBytes, rs.FullBytes
	}
	for _, a := range rep.Assertions {
		if !a.Pass {
			out.failedAssertions = append(out.failedAssertions,
				fmt.Sprintf("%s: want %s, got %s", a.Type, a.Want, a.Got))
		}
	}
	if out.report, err = json.Marshal(rep); err != nil {
		return simOutcome{}, err
	}
	return out, nil
}

// ---- probes: tight loops over one layer's exported functions ----

// warmTask is the Linpack order-8 task of the warm workloads, with the
// request, result and precomputed outcome that go with it.
type warmTask struct {
	task workload.Task
	req  offload.ExecRequest
	res  offload.Result
	pre  *workload.Precomputed
	size host.Bytes
}

func newWarmTask(seed int64) (*warmTask, error) {
	app, err := registry().Get(workload.NameLinpack)
	if err != nil {
		return nil, err
	}
	w := &warmTask{size: app.CodeSize()}
	w.task = workload.Task{
		App: app.Name(), Method: "solve", ParamBytes: 500,
		Params: workload.EncodeLinpackParams(seed, warmOrder),
	}
	m, err := registry().Execute(w.task)
	if err != nil {
		return nil, err
	}
	w.pre = &workload.Precomputed{Metrics: m}
	w.res = offload.Result{Output: m.Output, ResultBytes: m.ResultBytes}
	w.req = offload.ExecRequest{
		DeviceID: "probe-dev", AID: offload.AID(app.Name(), w.size), App: w.task.App,
		Method: w.task.Method, Params: w.task.Params, ParamBytes: w.task.ParamBytes,
	}
	return w, nil
}

// request returns the warm request as the realtime server hands it to core:
// numbered, with a fresh span and the precomputed outcome attached.
func (w *warmTask) request(seq int) offload.ExecRequest {
	req := w.req
	req.Seq = seq
	req.SetSpan(obs.NewSpan())
	req.SetPrecomputed(w.pre)
	return req
}

// serve runs one request through a gateway the way a device does: prepare,
// push the code if asked, execute, release.
func serve(p *sim.Proc, gw offload.Gateway, req offload.ExecRequest, size host.Bytes) error {
	sess, err := gw.Prepare(p, req)
	if err != nil {
		return err
	}
	defer sess.Release()
	if sess.NeedCode() {
		if err := sess.PushCode(p, offload.CodePush{AID: req.AID, App: req.App, Size: size}); err != nil {
			return err
		}
	}
	res, err := sess.Execute(p)
	if err != nil {
		return err
	}
	if res.Err != "" {
		return fmt.Errorf("cloud error: %s", res.Err)
	}
	return nil
}

// onEngine runs fn as a proc on e and drains the engine.
func onEngine(e *sim.Engine, fn func(p *sim.Proc)) {
	e.Spawn("probe", fn)
	e.Run()
}

// wirePair is a client and a server codec joined by in-memory buffers, for
// single-goroutine use: whatever one side sends is there for the other to
// receive.
type wirePair struct {
	client, server *offload.Conn
	up, down       bytes.Buffer
}

type bufPipe struct {
	r, w *bytes.Buffer
}

func (p bufPipe) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p bufPipe) Write(b []byte) (int, error) { return p.w.Write(b) }

func newWirePair() (*wirePair, error) {
	wp := &wirePair{}
	wp.client = offload.NewConnWire(bufPipe{r: &wp.down, w: &wp.up}, offload.WireBinary)
	wp.server = offload.NewConnWire(bufPipe{r: &wp.up, w: &wp.down}, offload.WireAuto)
	// The hello is what switches the server side to the binary codec.
	if err := wp.client.Send(offload.Frame{Kind: offload.KindHello, Hello: &offload.Hello{DeviceID: "probe-dev"}}); err != nil {
		return nil, err
	}
	if _, err := wp.server.Recv(); err != nil {
		return nil, err
	}
	return wp, nil
}

// probeFailure carries the first error out of a probe loop.
type probeFailure struct{ err error }

func (f *probeFailure) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// layerProbes measures every probe-sourced per-layer metric. The values are
// keyed by metric name; anything not in the map was not probed.
func layerProbes(m meter, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	var fail probeFailure
	warm, err := newWarmTask(seed)
	if err != nil {
		return nil, err
	}
	probeOffload(m, warm, out, &fail)
	probeRealtime(m, out)
	probeCore(m, warm, out, &fail)
	probeCluster(m, warm, out, &fail)
	probeSim(m, out)
	if err := probeWorkload(m, seed, warm, out, &fail); err != nil {
		return nil, err
	}
	if err := probeScenario(m, seed, warm, out, &fail); err != nil {
		return nil, err
	}
	probeObs(m, out)
	if out["realtime.conn_setup_us"], err = connSetupUs(seed); err != nil {
		return nil, err
	}
	return out, fail.err
}

func probeOffload(m meter, warm *warmTask, out map[string]float64, fail *probeFailure) {
	wp, err := newWirePair()
	if err != nil {
		fail.note(err)
		return
	}
	execFrame := offload.Frame{Kind: offload.KindExec, Exec: &warm.req}
	// Encode into a buffer that is emptied as it fills; decode the same
	// frame's bytes fed back over and over.
	out["offload.exec_encode_ns"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			wp.up.Reset()
			fail.note(wp.client.Send(execFrame))
		}
	})
	execBytes := append([]byte(nil), wp.up.Bytes()...)
	wp.up.Reset()
	out["offload.exec_decode_ns"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			wp.up.Write(execBytes)
			_, err := wp.server.Recv()
			fail.note(err)
		}
	})
	out["offload.result_encode_ns"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			wp.down.Reset()
			fail.note(wp.server.SendResult(&warm.res))
		}
	})
	resBytes := append([]byte(nil), wp.down.Bytes()...)
	wp.down.Reset()
	out["offload.result_decode_ns"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			wp.down.Write(resBytes)
			_, err := wp.client.Recv()
			fail.note(err)
		}
	})
	out["offload.frame_bytes"] = float64(len(execBytes) + len(resBytes))
	out["offload.roundtrip_allocs"] = allocsPerOp(1000, func(n int) {
		for i := 0; i < n; i++ {
			fail.note(wp.client.Send(execFrame))
			_, err := wp.server.Recv()
			fail.note(err)
			fail.note(wp.server.SendResult(&warm.res))
			_, err = wp.client.Recv()
			fail.note(err)
		}
	})
	// An 80-hash chunk offer: the opening frame of a 5 MB delta push.
	rng := rand.New(rand.NewSource(1))
	offer := offload.ChunkOffer{AID: warm.req.AID, App: warm.req.App, Size: 80 * offload.ChunkSize, Seq: 1}
	for i := 0; i < 80; i++ {
		offer.Hashes = append(offer.Hashes, rng.Uint64())
	}
	out["offload.offer_roundtrip_ns"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			fail.note(wp.client.Send(offload.ChunkOfferFrame(&offer)))
			f, err := wp.server.Recv()
			fail.note(err)
			_, err = offload.DecodeChunkOffer(f)
			fail.note(err)
		}
	})
}

func probeRealtime(m meter, out map[string]float64) {
	drv := realtime.NewDriver(sim.NewEngine(1), unpacedSpeed)
	drv.Start()
	defer drv.Stop()
	empty := func(*sim.Proc) {}
	out["realtime.driver_do_ns"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			drv.Do("probe", empty)
		}
	})
	out["realtime.driver_do_contended_ns"] = m.nsPerOp(2, func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/2; i++ {
					drv.Do("probe", empty)
				}
			}()
		}
		wg.Wait()
	})
}

// newProbePlatform is a bare platform on its own engine, instrumented like
// the realtime server's (a registry installed, so the request path records).
func newProbePlatform(cfg core.Config) (*sim.Engine, *core.Platform) {
	e := sim.NewEngine(1)
	pl := core.New(e, cfg)
	pl.SetObs(obs.NewRegistry())
	return e, pl
}

func probeCore(m meter, warm *warmTask, out map[string]float64, fail *probeFailure) {
	e, pl := newProbePlatform(core.DefaultConfig(core.KindRattrap))
	seq := 0
	loop := func(gw offload.Gateway, e *sim.Engine) func(n int) {
		return func(n int) {
			onEngine(e, func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					seq++
					fail.note(serve(p, gw, warm.request(seq), warm.size))
				}
			})
		}
	}
	out["core.warm_request_ns"] = m.nsPerOp(1, loop(pl, e))
	out["core.warm_request_allocs"] = allocsPerOp(1000, loop(pl, e))

	// Cold boot, 5 MB code push and runtime stop, timed inside the proc.
	const rounds = 15
	var bootWall, bootVirtual, pushWall, stopWall series
	e, pl = newProbePlatform(core.DefaultConfig(core.KindRattrap))
	onEngine(e, func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			wall, virtual := time.Now(), e.Now()
			info, err := pl.BootRuntime(p)
			if err != nil {
				fail.note(err)
				return
			}
			bootWall = append(bootWall, float64(time.Since(wall).Nanoseconds())/1e3)
			bootVirtual = append(bootVirtual, (e.Now()-virtual).Duration().Seconds()*1e3)

			req := warm.request(i)
			size := 5*host.MB + host.Bytes(i)
			req.AID = offload.AID(req.App, size)
			sess, err := pl.Prepare(p, req)
			if err != nil {
				fail.note(err)
				return
			}
			wall = time.Now()
			err = sess.PushCode(p, offload.CodePush{AID: req.AID, App: req.App, Size: size})
			pushWall = append(pushWall, float64(time.Since(wall).Nanoseconds())/1e3)
			sess.Release()
			fail.note(err)

			wall = time.Now()
			fail.note(pl.StopRuntime(p, info.CID))
			stopWall = append(stopWall, float64(time.Since(wall).Nanoseconds())/1e3)
		}
	})
	out["core.cold_boot_wall_us"] = bootWall.median()
	out["core.cold_boot_virtual_ms"] = bootVirtual.median()
	out["core.code_push_wall_us"] = pushWall.median()
	out["core.stop_runtime_wall_us"] = stopWall.median()
}

// clusterEntries is how many warehouse entries the join and repair probes
// migrate.
const clusterEntries = 1024

func probeCluster(m meter, warm *warmTask, out map[string]float64, fail *probeFailure) {
	aids := make([]string, 256)
	for i := range aids {
		aids[i] = offload.AID(warm.req.App, warm.size+host.Bytes(i))
	}
	mem := cluster.NewMembership(4, 0, 1)
	var sink int
	out["cluster.route_ns"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			shard, _ := mem.Route(aids[i&255])
			sink += shard
		}
	})

	// The core warm loop through a 4-shard cluster: the difference to
	// core.warm_request_ns is routing plus the session wrap.
	e := sim.NewEngine(1)
	cl := cluster.NewReplicated(e, core.DefaultConfig(core.KindRattrap), 4, 1)
	cl.SetObs(obs.NewRegistry())
	seq := 0
	out["cluster.warm_request_ns"] = m.nsPerOp(1, func(n int) {
		onEngine(e, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				seq++
				fail.note(serve(p, cl, warm.request(seq), warm.size))
			}
		})
	})

	// Join and repair: fill a replicated 4-shard cluster, then time a shard
	// joining and a shard failing, each run until the engine drains.
	var joinMs, repairMs, deltaRatio series
	entries, rounds := clusterEntries, 3
	if m.quick {
		entries, rounds = 64, 1
	}
	for round := 0; round < rounds; round++ {
		e := sim.NewEngine(1)
		cl := cluster.NewReplicated(e, core.DefaultConfig(core.KindRattrap), 4, 2)
		onEngine(e, func(p *sim.Proc) {
			for i := 0; i < entries; i++ {
				req := warm.request(i)
				size := warm.size + host.Bytes(i)
				req.AID = offload.AID(req.App, size)
				fail.note(serve(p, cl, req, size))
			}
		})
		start := time.Now()
		cl.AddShard()
		e.Run()
		joinMs = append(joinMs, time.Since(start).Seconds()*1e3)
		if st := cl.MigrationStats(); st.FullBytes > 0 {
			deltaRatio = append(deltaRatio, float64(st.DeltaBytes)/float64(st.FullBytes))
		}
		start = time.Now()
		cl.FailShard(1)
		e.Run()
		repairMs = append(repairMs, time.Since(start).Seconds()*1e3)
	}
	out["cluster.join_wall_ms"] = joinMs.median()
	out["cluster.join_delta_ratio"] = deltaRatio.median()
	out["cluster.repair_wall_ms"] = repairMs.median()
}

func probeSim(m meter, out map[string]float64) {
	// Self-rescheduling timers keep the heap at a fixed depth; every event is
	// one pop and one push.
	timers := func(depth int) func(n int) {
		return func(n int) {
			e := sim.NewEngine(1)
			left := n
			var tick func()
			tick = func() {
				if left > 0 {
					left--
					e.After(time.Duration(1+e.Rand().Intn(1000)), tick)
				}
			}
			for i := 0; i < depth && left > 0; i++ {
				tick()
			}
			e.Run()
		}
	}
	deep := 100_000
	if m.quick {
		deep = 2_000
	}
	out["sim.events_per_s"] = 1e9 / m.nsPerOp(4_000, timers(1_000))
	out["sim.events_per_s_deep"] = 1e9 / m.nsPerOp(4*deep, timers(deep))

	out["sim.proc_switch_ns"] = m.nsPerOp(1, func(n int) {
		onEngine(sim.NewEngine(1), func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
	})
	out["sim.spawn_ns"] = m.nsPerOp(1, func(n int) {
		e := sim.NewEngine(1)
		for i := 0; i < n; i++ {
			e.Spawn("empty", func(*sim.Proc) {})
		}
		e.Run()
	})
	out["sim.resource_use_ns"] = m.nsPerOp(1, func(n int) {
		e := sim.NewEngine(1)
		r := sim.NewResource(e, "probe", 1)
		onEngine(e, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				r.UseFor(p, 1, 1)
			}
		})
	})
	out["sim.signal_wait_ns"] = m.nsPerOp(1, func(n int) {
		e := sim.NewEngine(1)
		onEngine(e, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				sig := sim.NewSignal(e)
				e.After(1, sig.Fire)
				p.Wait(sig)
			}
		})
	})
}

func probeWorkload(m meter, seed int64, warm *warmTask, out map[string]float64, fail *probeFailure) error {
	reg := registry()
	rng := rand.New(rand.NewSource(seed))
	exec := func(t workload.Task) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				_, err := reg.Execute(t)
				fail.note(err)
			}
		}
	}
	big := warm.task
	big.Params = workload.EncodeLinpackParams(seed, 128)
	out["workload.linpack8_ns"] = m.nsPerOp(1, exec(warm.task))
	out["workload.linpack128_ns"] = m.nsPerOp(1, exec(big))
	var mixed []workload.Task
	for _, probe := range []struct{ app, metric string }{
		{workload.NameChess, "workload.chess_ns"},
		{workload.NameOCR, "workload.ocr_ns"},
		{workload.NameVirusScan, "workload.virusscan_ns"},
		{workload.NameLinpack, ""}, // a random order 110-149, only part of the mix
	} {
		app, err := reg.Get(probe.app)
		if err != nil {
			return err
		}
		task := app.NewTask(rng, 0)
		mixed = append(mixed, task)
		if probe.metric != "" {
			out[probe.metric] = m.nsPerOp(1, exec(task))
		}
	}
	out["workload.mixed_allocs_per_task"] = allocsPerOp(4*len(mixed), func(n int) {
		for i := 0; i < n; i++ {
			_, err := reg.Execute(mixed[i%len(mixed)])
			fail.note(err)
		}
	})
	return nil
}

func probeScenario(m meter, seed int64, warm *warmTask, out map[string]float64, fail *probeFailure) error {
	churn, err := scenarioYAML("sim-churn")
	if err != nil {
		return err
	}
	var scn *scenario.Scenario
	out["scenario.load_ms"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			scn, err = scenario.Decode(churn)
			fail.note(err)
		}
	}) / 1e6
	if scn == nil {
		return fail.err
	}
	cohort := scn.Fleet[0]
	arrivals := float64(cohort.Devices * cohort.RequestsPerDevice)
	out["scenario.schedule_ns_per_arrival"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			scenario.Schedule(cohort, seed, 0)
		}
	}) / arrivals

	// One simulated device offloading the warm task to a bare platform.
	e, pl := newProbePlatform(core.DefaultConfig(core.KindRattrap))
	dev, err := simdevice.New(e, "probe-dev", netsim.LANWiFi())
	if err != nil {
		return err
	}
	seq := 0
	offloads := func(n int) {
		onEngine(e, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				seq++
				task := warm.task
				task.Seq = seq
				_, _, err := dev.Offload(p, task, warm.size, pl)
				fail.note(err)
			}
		})
	}
	out["device.offload_wall_us"] = m.nsPerOp(1, offloads) / 1e3
	out["device.offload_allocs"] = allocsPerOp(1000, offloads)
	return nil
}

func probeObs(m meter, out map[string]float64) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("probe")
	out["obs.hist_observe_ns"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(time.Duration(i))
		}
	})
	// The seven stages a warm realtime request records.
	sp := obs.NewSpan()
	for _, stage := range []string{obs.StagePrepare, obs.StageQueueWait, obs.StageBoot, obs.StageCodeStage,
		obs.StageExecute, obs.StageWarehouseLoad, obs.StageRun} {
		sp.Add(stage, time.Millisecond)
	}
	out["obs.span_fold_ns"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			reg.ObserveSpan("server.stage.", sp)
		}
	})
	lat := metrics.NewLatencyHistogram()
	out["metrics.latency_observe_ns"] = m.nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			lat.Observe(time.Duration(i))
		}
	})
}

// meanTaskUs is the mean wall time of executing one of the workload's tasks:
// what workload.Registry.Execute costs the server per request of this kind.
func meanTaskUs(kind requestKind, seed int64) (float64, error) {
	d, err := newDevice(kind, 0, seed, 1, tcpWorkloads["tcp-compute"].pool)
	if err != nil {
		return 0, err
	}
	reg := registry()
	var spent time.Duration
	var n int
	for pass := 0; pass < 2; pass++ { // the first pass warms the apps' caches
		spent, n = 0, 0
		for i := range d.pool {
			if d.pool[i].want == "" {
				continue
			}
			e := d.pool[i].exec
			start := time.Now()
			_, err := reg.Execute(workload.Task{App: e.App, Method: e.Method, Params: e.Params, ParamBytes: e.ParamBytes, FileBytes: e.FileBytes})
			spent += time.Since(start)
			n++
			if err != nil {
				return 0, err
			}
		}
	}
	return float64(spent.Nanoseconds()) / 1e3 / float64(n), nil
}

// connSetupUs is the median wall time, against a running warm server, of a
// new device's dial, hello and first result.
func connSetupUs(seed int64) (float64, error) {
	const rounds = 15
	srv, err := startServer(1, false)
	if err != nil {
		return 0, err
	}
	defer srv.close()
	var took series
	for i := 0; i <= rounds; i++ {
		dev, err := newDevice(kindWarm, i, seed, 1, 1)
		if err != nil {
			return 0, err
		}
		dev.onResult = func(int, bool) {}
		start := time.Now()
		if err := dev.connect(srv.addr(), nil); err != nil {
			return 0, err
		}
		if err := dev.submit(0); err != nil {
			dev.close()
			return 0, err
		}
		err = dev.flush()
		if i > 0 { // the first device boots the runtime and stages the code
			took = append(took, float64(time.Since(start).Nanoseconds())/1e3)
		}
		dev.close()
		if err != nil {
			return 0, err
		}
	}
	return took.median(), nil
}

// ---- layer replay: the request path walked by one goroutine ----

// Span names of the replay, in the order a request meets them. core.* spans
// are children of the realtime.driver_do span they run inside.
const (
	replayExecEncode = iota
	replayExecDecode
	replayWorkload
	replayDriverDo
	replayPrepare
	replayExecute
	replayRelease
	replayResultEncode
	replayResultDecode
	replayBoot
	replayPushCode
)

var replaySpanNames = []string{
	"offload.exec_encode", "offload.exec_decode", "workload.execute", "realtime.driver_do",
	"core.prepare", "core.execute", "core.release", "offload.result_encode", "offload.result_decode",
	"core.boot", "core.push_code",
}

// replay walks n requests through the layers of the realtime request path
// on the calling goroutine — codec, workload precompute, driver, core, codec
// — recording a span around each call. cold replays tcp-cold's path: every
// request boots a runtime (the prepare span is named core.boot), pushes its
// code in a second driver entry and executes in a third, as the server does
// around the NEED_CODE exchange.
func replay(buf *traceBuf, seed int64, n int, cold bool) error {
	warm, err := newWarmTask(seed)
	if err != nil {
		return err
	}
	wp, err := newWirePair()
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(core.KindRattrap)
	if cold {
		cfg.IdleTimeout = time.Nanosecond
		cfg.WarehouseCapacity = coldWarehouse
	}
	e, pl := newProbePlatform(cfg)
	drv := realtime.NewDriver(e, unpacedSpeed)
	drv.Start()
	defer drv.Stop()
	reg := registry()
	if !cold { // stage the code and boot the runtime once, outside the trace
		var err error
		drv.Do("stage", func(p *sim.Proc) { err = serve(p, pl, warm.request(0), warm.size) })
		if err != nil {
			return err
		}
	}
	var fail probeFailure
	for i := 1; i <= n; i++ {
		size := warm.size
		req := warm.req
		req.Seq = i
		if cold {
			size += host.Bytes(i)
			req.AID = offload.AID(req.App, size)
		}

		sp := buf.open(replayExecEncode, i, -1)
		fail.note(wp.client.Send(offload.Frame{Kind: offload.KindExec, Exec: &req}))
		buf.close(sp)

		sp = buf.open(replayExecDecode, i, -1)
		f, err := wp.server.Recv()
		buf.close(sp)
		if err != nil {
			return err
		}
		got := *f.Exec

		sp = buf.open(replayWorkload, i, -1)
		m, err := reg.Execute(workload.Task{App: got.App, Method: got.Method, Seq: got.Seq, Params: got.Params, ParamBytes: got.ParamBytes})
		buf.close(sp)
		got.SetPrecomputed(&workload.Precomputed{Metrics: m, Err: err})
		got.SetSpan(obs.NewSpan())

		var sess offload.Session
		var res offload.Result
		do := buf.open(replayDriverDo, i, -1)
		drv.Do("replay", func(p *sim.Proc) {
			name := replayPrepare
			if cold {
				name = replayBoot
			}
			sp := buf.open(name, i, do)
			var err error
			sess, err = pl.Prepare(p, got)
			buf.close(sp)
			if fail.note(err); err != nil || cold {
				return
			}
			sp = buf.open(replayExecute, i, do)
			res, err = sess.Execute(p)
			buf.close(sp)
			fail.note(err)
			sp = buf.open(replayRelease, i, do)
			sess.Release()
			buf.close(sp)
		})
		buf.close(do)
		if fail.err != nil {
			return fail.err
		}
		if cold {
			do = buf.open(replayDriverDo, i, -1)
			drv.Do("replay-push", func(p *sim.Proc) {
				sp := buf.open(replayPushCode, i, do)
				fail.note(sess.PushCode(p, offload.CodePush{AID: got.AID, App: got.App, Size: size}))
				buf.close(sp)
			})
			buf.close(do)
			do = buf.open(replayDriverDo, i, -1)
			drv.Do("replay-exec", func(p *sim.Proc) {
				sp := buf.open(replayExecute, i, do)
				var err error
				res, err = sess.Execute(p)
				buf.close(sp)
				fail.note(err)
				sp = buf.open(replayRelease, i, do)
				sess.Release()
				buf.close(sp)
			})
			buf.close(do)
		}
		if res.Output != warm.res.Output {
			return fmt.Errorf("replay request %d: output %q, want %q", i, res.Output, warm.res.Output)
		}
		res.Seq = i

		sp = buf.open(replayResultEncode, i, -1)
		fail.note(wp.server.SendResult(&res))
		buf.close(sp)

		sp = buf.open(replayResultDecode, i, -1)
		_, err = wp.client.Recv()
		buf.close(sp)
		fail.note(err)
		if fail.err != nil {
			return fail.err
		}
	}
	return nil
}
