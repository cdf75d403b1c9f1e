package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tcpParams shapes one tcp-* workload.
type tcpParams struct {
	kind   requestKind
	depth  int
	pool   int // pre-generated requests per connection
	warmup int // untimed requests per connection before the first window
	// window is the length a window aims at: long enough for a thousand
	// samples, so that its p99 has ten beyond it, and for several collector
	// cycles, so that no window is read between two of them.
	window time.Duration
}

var tcpWorkloads = map[string]tcpParams{
	"tcp-warm-serial":    {kind: kindWarm, depth: 1, warmup: 2000, window: time.Second},
	"tcp-warm-pipelined": {kind: kindWarm, depth: 8, warmup: 4000, window: time.Second},
	"tcp-compute":        {kind: kindCompute, depth: 4, pool: 1024, warmup: 64, window: 2 * time.Second},
	"tcp-cold":           {kind: kindCold, depth: 1, warmup: 100, window: time.Second},
}

// tcpPlan is how a run's measuring time is cut up: segments of equal length,
// each a fresh rig measured for a whole number of windows.
type tcpPlan struct {
	segments, windows int // windows per segment
	length            time.Duration
	warmup            int
}

func (p tcpParams) plan(opt options) tcpPlan {
	if opt.smoke {
		return tcpPlan{segments: 2, windows: 1, length: 50 * time.Millisecond, warmup: 20}
	}
	segment := time.Duration(opt.seconds*float64(time.Second)) / tcpSegments
	windows := int((segment + p.window/2) / p.window)
	if windows < 1 {
		windows = 1
	}
	return tcpPlan{segments: tcpSegments, windows: windows, length: segment / time.Duration(windows), warmup: p.warmup}
}

// samplesPerWindow is the latency capacity set aside per device and window.
const samplesPerWindow = 1 << 17

// generator is one device's closed loop: it keeps depth requests in flight
// until told to stop, and stamps every result with its latency and window.
type generator struct {
	dev  *device
	next int // next seq to submit

	base      time.Time
	sent      []int64        // send instant by seq, a ring wider than the pipeline
	lastEvent int64          // instant of the latest result callback
	window    *atomic.Int32  // current window, shared with the coordinator
	lat       [][]float64    // per window, latencies in µs
	completed atomic.Int64   // results received
	failed    atomic.Int64   // results with an error or a wrong output
	err       error          // first transport error
	rw        *timedConn     // the device's socket, in a traced run
	sink      *traceRecorder // non-nil only in the traced window
}

func newGenerator(dev *device, windows int) *generator {
	ring := 1
	for ring < 2*dev.depth {
		ring <<= 1
	}
	g := &generator{dev: dev, base: time.Now(), sent: make([]int64, ring), lat: make([][]float64, windows)}
	dev.onResult = g.result
	return g
}

func (g *generator) result(seq int, ok bool) {
	now := int64(time.Since(g.base))
	g.lastEvent = now
	if g.window != nil {
		if w := int(g.window.Load()); w >= 0 && w < len(g.lat) {
			g.lat[w] = append(g.lat[w], float64(now-g.sent[seq&(len(g.sent)-1)])/1e3)
		}
	}
	if !ok {
		g.failed.Add(1)
	}
	g.completed.Add(1)
	if g.sink != nil {
		g.sink.result(seq, now)
	}
}

// submit sends the next request. PipelineClient.Submit first handles results
// until the pipeline has room, so the request is on its way only from the
// last of those callbacks (or from entry): that instant, not entry, is where
// its latency starts — a device blocks on its call, not on the one before.
func (g *generator) submit() error {
	seq := g.next
	g.next++
	entered := int64(time.Since(g.base))
	err := g.dev.submit(seq)
	sent := entered
	if g.lastEvent > sent {
		sent = g.lastEvent
	}
	g.sent[seq&(len(g.sent)-1)] = sent
	if g.sink != nil {
		g.sink.submitted(seq, sent, int64(time.Since(g.base)))
	}
	return err
}

// run submits n requests and waits for all their results.
func (g *generator) run(n int) error {
	for i := 0; i < n; i++ {
		if err := g.submit(); err != nil {
			return err
		}
	}
	return g.dev.flush()
}

// loop submits until stop is set, then drains the pipeline.
func (g *generator) loop(stop *atomic.Bool) {
	for !stop.Load() {
		if g.err = g.submit(); g.err != nil {
			return
		}
	}
	g.err = g.dev.flush()
}

// tcpRig is a server with its warmed-up devices, ready for timed windows.
type tcpRig struct {
	srv  *server
	gens []*generator
}

// setUpTCP is everything a tcp-* run does before its first timed request:
// build the server, draw each device's requests and expected outputs, dial,
// say hello and warm up. A traced rig puts a timedConn under each device.
func setUpTCP(p tcpParams, seed int64, windows, warmup int, traced bool) (*tcpRig, error) {
	srv, err := startServer(p.depth, p.kind == kindCold)
	if err != nil {
		return nil, err
	}
	rig := &tcpRig{srv: srv}
	for i := 0; i < connections; i++ {
		dev, err := newDevice(p.kind, i, seed, p.depth, p.pool)
		if err != nil {
			rig.close()
			return nil, err
		}
		g := newGenerator(dev, windows)
		rig.gens = append(rig.gens, g)
		var wrap func(net.Conn) io.ReadWriter
		if traced {
			wrap = func(c net.Conn) io.ReadWriter {
				g.rw = &timedConn{Conn: c, base: g.base}
				return g.rw
			}
		}
		if err := dev.connect(srv.addr(), wrap); err != nil {
			rig.close()
			return nil, err
		}
		if err := g.run(warmup); err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up on %s: %w", dev.id, err)
		}
	}
	return rig, nil
}

func (r *tcpRig) close() error {
	for _, g := range r.gens {
		g.dev.close()
	}
	return r.srv.close()
}

func (r *tcpRig) completed() (n int64) {
	for _, g := range r.gens {
		n += g.completed.Load()
	}
	return n
}

// windowReading is what the coordinator notes at a window boundary; yard is
// the yardstick's reading of the window the boundary closes.
type windowReading struct {
	usage
	completed int64
	yard      yardReading
}

func (r *tcpRig) read() windowReading {
	return windowReading{usage: readUsage(), completed: r.completed()}
}

// measure runs the closed loops for the given number of windows and returns
// the boundary readings (windows+1 of them). The devices run continuously;
// a boundary only moves the window index results are filed under. The
// yardstick, when there is one, is sampled window by window.
func (r *tcpRig) measure(yard *yardstick, windows int, length time.Duration, firstWindow int) ([]windowReading, error) {
	var window atomic.Int32
	window.Store(int32(firstWindow))
	var stop atomic.Bool
	for _, g := range r.gens {
		g.window = &window
		for w := firstWindow; w < firstWindow+windows; w++ {
			// Room for the fastest workload's window, so that recording
			// a latency does not allocate inside the window it measures.
			g.lat[w] = make([]float64, 0, samplesPerWindow)
		}
	}
	runtime.GC()
	readings := make([]windowReading, 0, windows+1)
	readings = append(readings, r.read())
	var wg sync.WaitGroup
	for _, g := range r.gens {
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			g.loop(&stop)
		}(g)
	}
	start := readings[0].at
	for w := 1; w <= windows; w++ {
		ys := yard.start()
		time.Sleep(time.Until(start.Add(time.Duration(w) * length)))
		window.Store(int32(firstWindow + w))
		seen := ys.read()
		readings = append(readings, r.read())
		readings[w].yard = seen
	}
	stop.Store(true)
	wg.Wait()
	for _, g := range r.gens {
		g.window = nil
		if g.err != nil {
			return nil, fmt.Errorf("%s: %w", g.dev.id, g.err)
		}
	}
	return readings, nil
}

// latencies merges the devices' samples of one window, ascending.
func (r *tcpRig) latencies(w int) []float64 {
	var all []float64
	for _, g := range r.gens {
		all = append(all, g.lat[w]...)
	}
	sort.Float64s(all)
	return all
}

// tcpValues are a run's per-window values (per-segment for setup), every
// timing and rate already divided or multiplied by its window's slowdown.
type tcpValues struct {
	setup, slowdown, slowdown50       series
	rps, p50, p99, cpu, allocs, bytes series
	samples                           []int
}

// segment sets a rig up, measures it for the plan's windows, checks it and
// closes it.
func (p tcpParams) segment(pl tcpPlan, seed int64, yard *yardstick, res *runResult, v *tcpValues) error {
	// Collect the previous segment's server before building the next, so that
	// the resident set peaks at one server's footprint, not two.
	runtime.GC()
	start := time.Now()
	ys := yard.start()
	rig, err := setUpTCP(p, seed, pl.windows, pl.warmup, false)
	if err != nil {
		ys.read()
		return err
	}
	defer rig.close()
	v.setup = append(v.setup, time.Since(start).Seconds()/ys.read().slowdown)
	readings, err := rig.measure(yard, pl.windows, pl.length, 0)
	if err != nil {
		return err
	}
	for w := 0; w < pl.windows; w++ {
		a, b := readings[w], readings[w+1]
		reqs := b.completed - a.completed
		rt := b.yard.calibrated(ratesBetween(a.usage, b.usage, reqs), reqs)
		lat := rig.latencies(w)
		v.slowdown = append(v.slowdown, b.yard.slowdown)
		v.slowdown50 = append(v.slowdown50, b.yard.slowdown50)
		v.rps = append(v.rps, rt.reqPerS)
		v.cpu = append(v.cpu, rt.cpuUs)
		v.p50 = append(v.p50, quantile(lat, 0.50)/b.yard.slowdown50)
		v.p99 = append(v.p99, quantile(lat, 0.99)/b.yard.slowdown)
		v.allocs = append(v.allocs, rt.allocs)
		v.bytes = append(v.bytes, rt.allocBytes)
		v.samples = append(v.samples, len(lat))
	}
	rig.check(res)
	return nil
}

// runTCP is one untraced run of a tcp-* workload.
func runTCP(name string, opt options) (*runResult, error) {
	p := tcpWorkloads[name]
	if opt.smoke && p.pool > 4*verifyEvery {
		p.pool = 4 * verifyEvery // every app verified once is plumbing enough
	}
	pl := p.plan(opt)
	res := newRunResult(name, opt)
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer yard.close()
	res.CalibBeforeNs = calibrate(opt.calibIters()).Nanoseconds()
	var v tcpValues
	for s := 0; s < pl.segments; s++ {
		if err := p.segment(pl, opt.seed, yard, res, &v); err != nil {
			return nil, err
		}
	}
	res.CalibAfterNs = calibrate(opt.calibIters()).Nanoseconds()
	res.set("setup_s", v.setup)
	res.set("req_per_s", v.rps)
	res.set("wall_p50_us", v.p50)
	res.set("cpu_us_per_req", v.cpu)
	res.set("allocs_per_req", v.allocs)
	res.set("alloc_bytes_per_req", v.bytes)
	res.setValue("peak_rss_mb", peakRSSMB())
	res.Slowdown = newReading("x", v.slowdown)
	res.Slowdown50 = newReading("x", v.slowdown50)
	res.P99Us = newReading("us", v.p99)
	res.Samples = v.samples
	return res, nil
}

// check applies the tcp-* correctness rules to a rig that has finished:
// every result was error-free (and, where an output was precomputed, equal
// to it), every submitted request produced exactly one result, and the
// server's own counters agree. A run's segments add up in res.
func (r *tcpRig) check(res *runResult) {
	attempted := r.completed()
	var failed int64
	for _, g := range r.gens {
		failed += g.failed.Load()
		if int64(g.next) != g.completed.Load() {
			res.fail("%s submitted %d requests but saw %d results", g.dev.id, g.next, g.completed.Load())
		}
	}
	if sc := r.srv.counts(); sc.requests != attempted || sc.results != attempted {
		res.fail("server counted %d requests and %d results for %d attempted", sc.requests, sc.results, attempted)
	}
	if failed > 0 {
		res.fail("%d of %d results carried an error or a wrong output", failed, attempted)
	}
	res.Attempted += attempted
	res.Failed += failed
}
