package main

import (
	"bytes"
	"embed"
	"runtime"
	"time"
)

//go:embed scenarios/*.yaml
var scenarioFiles embed.FS

// simShrink divides the declared fleets: the set-up warm-up runs a fiftieth
// of the scenario, -smoke a five-hundredth.
const (
	warmupShrink = 50
	smokeShrink  = 500
)

func scenarioYAML(name string) ([]byte, error) {
	return scenarioFiles.ReadFile("scenarios/" + name + ".yaml")
}

// simRepeat is one timed scenario run; rates are yardstick times wherever a
// yardstick was sampled beside it.
type simRepeat struct {
	outcome simOutcome
	wall    time.Duration
	rates   rates
}

// setUpSim is everything a sim-* run does before its first timed request:
// read and decode the scenario, and run a miniature of it so the heap, the
// workload caches and the code pages are warm.
func setUpSim(name string, opt options) (*simPlan, error) {
	yaml, err := scenarioYAML(name)
	if err != nil {
		return nil, err
	}
	plan, err := planScenario(yaml, opt.seed)
	if err != nil {
		return nil, err
	}
	if opt.smoke {
		plan = plan.shrunk(smokeShrink)
	}
	if _, err := plan.shrunk(warmupShrink).run(); err != nil {
		return nil, err
	}
	return plan, nil
}

// timeScenario runs the scenario once, the yardstick (nil in a traced run)
// sampled beside it.
func timeScenario(plan *simPlan, yard *yardstick) (simRepeat, yardReading, error) {
	runtime.GC()
	before := readUsage()
	ys := yard.start()
	out, err := plan.run()
	seen := ys.read()
	if err != nil {
		return simRepeat{}, seen, err
	}
	after := readUsage()
	reqs := int64(out.succeeded)
	return simRepeat{outcome: out, wall: after.at.Sub(before.at), rates: seen.calibrated(ratesBetween(before, after, reqs), reqs)}, seen, nil
}

// checkSim applies the sim-* correctness rules to a run's repeats: the
// scenario's own assertions pass, the fleet arrived in full, and every
// repeat produced the same report byte for byte — so a simulator speed-up
// cannot have changed a simulated statistic unnoticed.
func checkSim(res *runResult, reps []simRepeat) {
	first := reps[0].outcome
	res.Attempted = int64(first.arrivals)
	res.Failed = int64(first.arrivals - first.succeeded)
	for _, msg := range first.failedAssertions {
		res.fail("scenario assertion failed: %s", msg)
	}
	if first.arrivals != first.declared {
		res.fail("%d arrivals for a declared fleet of %d", first.arrivals, first.declared)
	}
	if res.Failed > 0 {
		res.fail("%d of %d simulated requests failed", res.Failed, res.Attempted)
	}
	for i, r := range reps[1:] {
		if !bytes.Equal(r.outcome.report, first.report) {
			res.fail("repeat %d produced a different report than repeat 0", i+1)
		}
	}
}

// runSim is one untraced run of a sim-* workload: segments of one set-up and
// one timed scenario run each, until another run of the last one's length
// would overrun the measuring time. The yardstick is sampled over each set-up
// and each scenario run, and their timings are divided by its slowdown.
func runSim(name string, opt options) (*runResult, error) {
	res := newRunResult(name, opt)
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer yard.close()
	res.CalibBeforeNs = calibrate(opt.calibIters()).Nanoseconds()
	budget := time.Duration(opt.seconds * float64(time.Second))
	minRepeats := simMinRepeats
	if opt.smoke {
		minRepeats = 2 // enough to compare two reports
	}
	var setup, slowdown series
	var reps []simRepeat
	var measured time.Duration
	for {
		runtime.GC() // as in tcpParams.segment: one repeat's garbage stays out of the next one's peak
		start := time.Now()
		ys := yard.start()
		plan, err := setUpSim(name, opt)
		if err != nil {
			ys.read()
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds()/ys.read().slowdown)
		rep, seen, err := timeScenario(plan, yard)
		if err != nil {
			return nil, err
		}
		slowdown = append(slowdown, seen.slowdown)
		reps = append(reps, rep)
		measured += rep.wall
		if len(reps) >= minRepeats && (opt.smoke || measured+rep.wall > budget) {
			break
		}
	}
	res.CalibAfterNs = calibrate(opt.calibIters()).Nanoseconds()

	var rps, perReq, cpu, allocs, bytes series
	for _, r := range reps {
		rps = append(rps, r.rates.reqPerS)
		perReq = append(perReq, 1e6/r.rates.reqPerS)
		cpu = append(cpu, r.rates.cpuUs)
		allocs = append(allocs, r.rates.allocs)
		bytes = append(bytes, r.rates.allocBytes)
		res.Samples = append(res.Samples, r.outcome.succeeded)
	}
	res.set("setup_s", setup)
	res.set("req_per_s", rps)
	// A simulator's only wall latency is what it spends per simulated
	// request.
	res.set("wall_p50_us", perReq)
	res.set("cpu_us_per_req", cpu)
	res.set("allocs_per_req", allocs)
	res.set("alloc_bytes_per_req", bytes)
	res.setValue("peak_rss_mb", peakRSSMB())
	res.Slowdown = newReading("x", slowdown)
	res.ReportDigest = digest(reps[0].outcome.report)
	res.VirtP50Ms, res.VirtP99Ms = reps[0].outcome.virtP50Ms, reps[0].outcome.virtP99Ms
	checkSim(res, reps)
	return res, nil
}
