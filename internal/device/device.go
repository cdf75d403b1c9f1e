// Package device models the client side: an Android handset that either
// runs a workload locally or offloads it through the framework in package
// offload. The device owns its network link, its power meter, and its
// per-app request sequence; the cloud side is reached exclusively through
// the offload.Gateway interface, mirroring the paper's split between
// client frameworks and the Rattrap cloud platform.
package device

import (
	"math/rand"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/netsim"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/power"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// Device is one mobile client.
type Device struct {
	Name  string
	E     *sim.Engine
	H     *host.Host
	Link  *netsim.Link
	Radio power.Radio
	Meter power.Meter

	reg     *workload.Registry
	rng     *rand.Rand
	seq     map[string]int
	traffic offload.Traffic

	spans    bool      // collect a per-request span on each Offload
	lastSpan *obs.Span // span of the most recent Offload attempt

	chunked bool // Client.Chunked of every exchange; see EnableChunkedPush
}

// New creates a device on engine e attached to the given network scenario.
func New(e *sim.Engine, name string, profile netsim.Profile) (*Device, error) {
	radio, err := power.RadioFor(profile.Name)
	if err != nil {
		return nil, err
	}
	return &Device{
		Name:  name,
		E:     e,
		H:     host.New(e, host.MobileDevice(name)),
		Link:  netsim.NewLink(e, profile),
		Radio: radio,
		reg:   workload.NewRegistry(),
		rng:   rand.New(rand.NewSource(int64(len(name))*7919 + e.Rand().Int63())),
		seq:   make(map[string]int),
	}, nil
}

// NewTask draws this device's next request for app.
func (d *Device) NewTask(app workload.App) workload.Task {
	s := d.seq[app.Name()]
	d.seq[app.Name()]++
	return app.NewTask(d.rng, s)
}

// EnableSpans toggles per-request observability spans. When on, each
// Offload attempt records into a fresh span (see Client.Attempt) — the sum
// of its top-level stages equals Phases.Response() exactly. When off (the
// default) no span is allocated and every record site is a nil no-op.
func (d *Device) EnableSpans(on bool) { d.spans = on }

// LastSpan returns the span collected by the most recent Offload attempt,
// nil when spans are disabled or no offload has run yet.
func (d *Device) LastSpan() *obs.Span { return d.lastSpan }

// EnableChunkedPush toggles the delta code push (Client.Chunked). Off (the
// default), every push is a full blob and the exchange is byte-for-byte the
// historical one.
func (d *Device) EnableChunkedPush(on bool) { d.chunked = on }

// Traffic returns the device's cumulative migrated-data accounting.
func (d *Device) Traffic() offload.Traffic { return d.traffic }

// ExecuteLocal runs the task on the handset itself, charging active-CPU
// energy for the duration. It returns the local execution time.
func (d *Device) ExecuteLocal(p *sim.Proc, task workload.Task) (time.Duration, workload.Metrics, error) {
	m, err := d.reg.Execute(task)
	if err != nil {
		return 0, m, err
	}
	start := d.E.Now()
	d.H.Compute(p, m.Work, 1.0)
	if io := m.IORead + m.IOWrite; io > 0 {
		d.H.DiskRead(p, "", io, true, 1.0)
	}
	dur := (d.E.Now() - start).Duration()
	d.Meter.AddLocal(dur)
	return dur, m, nil
}

// Offload runs the task on the cloud through gw, returning the phase
// breakdown and the result. The exchange itself is Client.Attempt; energy
// and traffic are accounted on the device.
func (d *Device) Offload(p *sim.Proc, task workload.Task, codeSize host.Bytes, gw offload.Gateway) (offload.Phases, offload.Result, error) {
	reqStart := d.E.Now()
	var sp *obs.Span
	if d.spans {
		sp = obs.NewSpan()
		d.lastSpan = sp
	}
	x, err := Client{ID: d.Name, Link: d.Link, Chunked: d.chunked}.Attempt(p, gw, task, offload.CodeOf(task.App, codeSize), sp)
	d.traffic.Add(x.Traffic)
	if err == nil {
		d.Meter.AddOffload(d.Radio, x.OffloadBreakdown, reqStart.Duration(), d.E.Now().Duration())
	}
	return x.Phases, x.Result, err
}

// Estimate is the client framework's offload-decision input: predicted
// response time and device energy for offloading versus running locally.
type Estimate struct {
	LocalTime     time.Duration
	LocalEnergyJ  float64
	OffloadTime   time.Duration
	OffloadEnergy float64
}

// ShouldOffload applies the decision rule existing frameworks use:
// offload when it is predicted to respond faster than local execution.
// (When it is slower, it is also never worth the battery: the device
// idles *and* keeps the radio active for longer than it would compute.)
func (e Estimate) ShouldOffload() bool { return e.OffloadTime < e.LocalTime }

// estimate predicts offload cost for a task from the link profile and the
// task's wire sizes, with a profiling-based prediction of its computation
// from m, the task's own metrics (the device has executed this app locally
// before; MAUI-style frameworks keep exactly this history).
func (d *Device) estimate(task workload.Task, m workload.Metrics) Estimate {
	devCfg := d.H.Config()
	localSecs := float64(m.Work)/devCfg.CoreMops +
		float64(m.IORead+m.IOWrite)/float64(host.MB)/devCfg.DiskSeqMBps
	local := time.Duration(localSecs * float64(time.Second))

	prof := d.Link.Profile()
	up := float64(task.UploadBytes()+offload.ControlBytes) * 8 / (prof.UpMbps * 1e6)
	down := float64(m.ResultBytes+offload.ControlBytes) * 8 / (prof.DownMbps * 1e6)
	conn := (prof.ConnSetup + prof.RTT*3/2).Seconds()
	// Cloud compute at the advertised server speed; runtime preparation
	// predicted warm (the optimistic assumption that produces the paper's
	// observed offloading failures on cold runtimes).
	cloud := float64(m.Work) / host.CloudServer().CoreMops
	offSecs := conn + up + down + cloud + prof.RTT.Seconds()
	offTime := time.Duration(offSecs * float64(time.Second))

	return Estimate{
		LocalTime:    local,
		LocalEnergyJ: power.LocalEnergy(local),
		OffloadTime:  offTime,
		OffloadEnergy: power.OffloadEnergy(d.Radio, power.OffloadBreakdown{
			Phases: offload.Phases{
				NetworkConnection:    prof.ConnSetup + prof.RTT*3/2,
				DataTransfer:         time.Duration((up + down) * float64(time.Second)),
				ComputationExecution: time.Duration(cloud * float64(time.Second)),
			},
			UpAirtime:   time.Duration(up * float64(time.Second)),
			DownAirtime: time.Duration(down * float64(time.Second)),
		}),
	}
}

// MaybeOffload runs the framework's decision: it offloads through gw when
// predicted beneficial, otherwise executes locally, and returns the
// estimate it decided on (est.ShouldOffload() says which path ran). The
// task's kernel runs once, for the estimate; its metrics ride the task as
// its workload.Precomputed, so the local path and the cloud reuse them. A
// kernel error is returned with the zero Estimate, before either path runs.
func (d *Device) MaybeOffload(p *sim.Proc, task workload.Task, codeSize host.Bytes, gw offload.Gateway) (est Estimate, ph offload.Phases, res offload.Result, err error) {
	m, err := d.reg.Execute(task)
	if err != nil {
		return Estimate{}, ph, res, err
	}
	task.SetPrecomputed(&workload.Precomputed{Metrics: m})
	est = d.estimate(task, m)
	if !est.ShouldOffload() {
		_, m, err = d.ExecuteLocal(p, task)
		return est, ph, offload.Result{Output: m.Output, ResultBytes: m.ResultBytes}, err
	}
	ph, res, err = d.Offload(p, task, codeSize, gw)
	return est, ph, res, err
}
