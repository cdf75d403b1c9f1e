package main

import (
	"path/filepath"
	"time"
)

// Sizes of the traced run's parts.
const (
	windowSpanCap  = 1 << 18 // spans kept per connection of the traced window
	replayWarmReqs = 20000
	replayColdReqs = 500
)

// runTraced is the -trace 1 run: it reports every per-layer metric and
// writes trace.json. It has three parts: the workload itself — one untraced
// and one traced window (tcp-*) or one scenario run (sim-*) — for the
// registry and report reads and the tracing overhead; the probes; and the
// warm and cold layer replays.
func runTraced(opt options) (*runResult, error) {
	res := newRunResult(opt.workload, opt)
	for _, m := range perLayer {
		res.setValue(m.Name, 0) // a metric that does not apply to this workload stays 0
	}
	// The window (or scenario run) and the replays are long enough to read
	// the yardstick beside them and are reported in yardstick time, like
	// the end-to-end metrics. A probe round is not, and the probes are
	// reported as the clock read them.
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer yard.close()
	res.CalibBeforeNs = calibrate(opt.calibIters()).Nanoseconds()

	var parts []*traceBuf
	var window tracedWindow
	if p, tcp := tcpWorkloads[opt.workload]; tcp {
		if window, err = traceTCP(res, p, opt, yard); err != nil {
			return nil, err
		}
		parts = window.parts
	} else {
		plan, err := setUpSim(opt.workload, opt)
		if err != nil {
			return nil, err
		}
		rep, _, err := timeScenario(plan, yard)
		if err != nil {
			return nil, err
		}
		checkSim(res, []simRepeat{rep})
		reportReads(res, rep)
	}
	if res.Attempted > 0 {
		res.setValue("client.fail_ratio", float64(res.Failed)/float64(res.Attempted))
	}

	probed, err := layerProbes(probeMeter(opt), opt.seed)
	if err != nil {
		return nil, err
	}
	for name, v := range probed {
		res.setValue(name, v)
	}

	replays, err := traceReplays(res, opt, yard, window)
	if err != nil {
		return nil, err
	}
	res.CalibAfterNs = calibrate(opt.calibIters()).Nanoseconds()

	dir := opt.out
	if dir == "" {
		dir = defaultOut
	}
	if err := writeTrace(filepath.Join(dir, "trace.json"), append(parts, replays...)); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedWindow is what the replay needs to know about the tcp-* window: its
// spans, the untraced window's CPU per request and the workload's mean task
// cost, both as the clock read them, and whether it ran the cold path.
type tracedWindow struct {
	parts  []*traceBuf
	cpuUs  float64
	taskUs float64
	cold   bool
}

// traceTCP runs a tcp-* workload for one untraced and one traced window and
// fills in the client spans' self times, the tracing overhead and the
// registry reads.
func traceTCP(res *runResult, p tcpParams, opt options, yard *yardstick) (tracedWindow, error) {
	win := tracedWindow{cold: p.kind == kindCold}
	pl := p.plan(opt)
	rig, err := setUpTCP(p, opt.seed, 2, pl.warmup, true)
	if err != nil {
		return win, err
	}
	defer rig.close()
	plain, err := rig.measure(yard, 1, pl.length, 0)
	if err != nil {
		return win, err
	}
	for _, g := range rig.gens {
		g.sink = newTraceRecorder(g, windowSpanCap)
		g.rw.on = true
		win.parts = append(win.parts, g.sink.buf)
	}
	traced, err := rig.measure(yard, 1, pl.length, 1)
	if err != nil {
		return win, err
	}
	for _, g := range rig.gens {
		g.sink, g.rw.on = nil, false
	}
	yardRates := func(r []windowReading) rates {
		reqs := r[1].completed - r[0].completed
		return r[1].yard.calibrated(ratesBetween(r[0].usage, r[1].usage, reqs), reqs)
	}
	before, after := yardRates(plain), yardRates(traced)
	res.setValue("trace.overhead_pct", 100*(before.reqPerS-after.reqPerS)/before.reqPerS)
	res.setValue("client.wall_p99_us", quantile(rig.latencies(0), 0.99)/plain[1].yard.slowdown)
	win.cpuUs = ratesBetween(plain[0].usage, plain[1].usage, plain[1].completed-plain[0].completed).cpuUs
	if win.taskUs, err = meanTaskUs(p.kind, opt.seed); err != nil {
		return win, err
	}

	var submit, wait, decode series
	for _, buf := range win.parts {
		self, slow := buf.selfUs(), traced[1].yard.slowdown50
		submit = append(submit, self["client.submit"]/slow)
		wait = append(wait, self["client.wait"]/slow)
		decode = append(decode, self["client.decode"]/slow)
	}
	res.setValue("trace.client.submit_self_us", submit.median())
	res.setValue("trace.client.wait_self_us", wait.median())
	res.setValue("trace.client.decode_self_us", decode.median())
	res.setValue("client.submit_ns", submit.median()*1e3)
	res.setValue("client.step_ns", decode.median()*1e3)

	rig.check(res)
	// The server's histogram covers the rig's life: the warm-up and both
	// windows.
	registryReads(res, rig.srv.counts(), (plain[1].yard.slowdown50+traced[1].yard.slowdown50)/2)
	return win, nil
}

// traceReplays runs the warm and the cold layer replay and reports their
// self times, their sums, and what they leave unexplained of the window's
// CPU per request.
func traceReplays(res *runResult, opt options, yard *yardstick, win tracedWindow) ([]*traceBuf, error) {
	warmN, coldN := replayWarmReqs, replayColdReqs
	if opt.smoke {
		warmN, coldN = 200, 20
	}
	warm := newTraceBuf("replay:warm", time.Now(), warmN*len(replaySpanNames), replaySpanNames...)
	ys := yard.start()
	err := replay(warm, opt.seed, warmN, false)
	warmSlow := ys.read().slowdown50
	if err != nil {
		return nil, err
	}
	cold := newTraceBuf("replay:cold", time.Now(), coldN*2*len(replaySpanNames), replaySpanNames...)
	ys = yard.start()
	err = replay(cold, opt.seed, coldN, true)
	coldSlow := ys.read().slowdown50
	if err != nil {
		return nil, err
	}
	warmSelf, coldSelf := warm.selfUs(), cold.selfUs()
	var warmSum, coldSum float64
	for _, name := range replaySpanNames {
		self := warmSelf[name] / warmSlow
		if name == "core.boot" || name == "core.push_code" {
			self = coldSelf[name] / coldSlow
		}
		res.setValue("trace."+name+"_self_us", self)
		warmSum += warmSelf[name]
		coldSum += coldSelf[name]
	}
	res.setValue("trace.replay_sum_us", warmSum/warmSlow)
	res.setValue("trace.replay_cold_sum_us", coldSum/coldSlow)
	if win.cpuUs > 0 {
		// What the replay explains of this workload's CPU per request: the
		// matching replay's sum, with the replay's own workload.execute
		// swapped for this workload's mean task cost. A share of clock
		// readings taken within seconds of each other: the mean task cost
		// is timed in a loop that yields to no sampler.
		explained, execute := warmSum, warmSelf["workload.execute"]
		if win.cold {
			explained, execute = coldSum, coldSelf["workload.execute"]
		}
		explained += win.taskUs - execute
		res.setValue("trace.unattributed_pct", 100*(win.cpuUs-explained)/win.cpuUs)
	}
	return []*traceBuf{warm, cold}, nil
}

// registryReads turns the server's counters into per-request ratios over the
// rig's whole life (warm-up included: it runs the same requests); slowdown
// is the yardstick's over that life.
func registryReads(res *runResult, c serverCounts, slowdown float64) {
	reqs := float64(c.requests)
	res.setValue("realtime.requests", reqs)
	res.setValue("realtime.results", float64(c.results))
	res.setValue("realtime.dedup_hits", float64(c.dedupHits))
	res.setValue("realtime.server_wall_p50_us", float64(c.wallP50.Nanoseconds())/1e3/slowdown)
	res.setValue("realtime.server_wall_p99_us", float64(c.wallP99.Nanoseconds())/1e3/slowdown)
	res.setValue("core.overload_rejects", float64(c.overloadRejects))
	res.setValue("core.queue_wait_virtual_p50_ms", c.queueWaitP50.Seconds()*1e3)
	if reqs > 0 {
		res.setValue("realtime.timer_wakeups_per_req", float64(c.timerWakeups)/reqs)
		res.setValue("core.boots_per_req", float64(c.boots)/reqs)
		res.setValue("core.template_clones_per_req", float64(c.templateClones)/reqs)
		res.setValue("core.affinity_hit_ratio", float64(c.affinityHits)/reqs)
		res.setValue("core.queued_per_req", float64(c.queued)/reqs)
	}
	if lookups := c.whHits + c.whMisses; lookups > 0 {
		res.setValue("core.warehouse_hit_ratio", float64(c.whHits)/float64(lookups))
	}
}

// reportReads turns one scenario run's report into per-layer metrics.
func reportReads(res *runResult, rep simRepeat) {
	o := rep.outcome
	res.ReportDigest = digest(o.report)
	res.VirtP50Ms, res.VirtP99Ms = o.virtP50Ms, o.virtP99Ms
	res.setValue("scenario.wall_us_per_arrival", 1e6/rep.rates.reqPerS) // every arrival succeeded, or checkSim failed the run
	res.setValue("scenario.retries", float64(o.retries))
	res.setValue("scenario.overloads", float64(o.overloads))
	res.setValue("scenario.virt_p50_ms", o.virtP50Ms)
	res.setValue("scenario.virt_p99_ms", o.virtP99Ms)
	res.setValue("cluster.entries_moved", float64(o.entriesMoved))
	res.setValue("cluster.repaired", float64(o.repaired))
	if o.fullBytes > 0 {
		res.setValue("cluster.delta_ratio", float64(o.deltaBytes)/float64(o.fullBytes))
	}
	if lookups := o.whHits + o.whMisses; lookups > 0 {
		res.setValue("core.warehouse_hit_ratio", float64(o.whHits)/float64(lookups))
	}
}
