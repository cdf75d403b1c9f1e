// Package device models the client side: an Android handset that either
// runs a workload locally or offloads it through the framework in package
// offload. The device owns its network link, its power meter, and its
// per-app request sequence; the cloud side is reached exclusively through
// the offload.Gateway interface, mirroring the paper's split between
// client frameworks and the Rattrap cloud platform.
package device

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rattrap/internal/faults"
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

	// chunked opts this device into the content-addressed delta push: code
	// transfers open with a chunk-hash offer and move only the chunks the
	// warehouse is missing. Off (the default), every push is a full blob
	// and the wire exchange is byte-for-byte the historical one.
	chunked bool
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
// Offload attempt creates a fresh span, attaches it to the ExecRequest
// (so the platform's dispatcher/warehouse/runtime sub-stages land in it),
// and mirrors every phase accumulation as a top-level stage — the sum of
// top-level stages equals Phases.Response() exactly. When off (the
// default) no span is allocated and every record site is a nil no-op.
func (d *Device) EnableSpans(on bool) { d.spans = on }

// LastSpan returns the span collected by the most recent Offload attempt,
// nil when spans are disabled or no offload has run yet.
func (d *Device) LastSpan() *obs.Span { return d.lastSpan }

// EnableChunkedPush toggles the delta code push: on, the device opens a
// push with a chunk offer, which is all the opt-in there is — the cloud
// has no switch of its own. The device still falls back to a full
// transfer when the cloud answers the offer with Supported=false (a
// platform without a warehouse, or a malformed offer).
func (d *Device) EnableChunkedPush(on bool) { d.chunked = on }

// Traffic returns the device's cumulative migrated-data accounting.
func (d *Device) Traffic() offload.Traffic { return d.traffic }

// ResetTraffic zeroes the accounting (between experiments).
func (d *Device) ResetTraffic() { d.traffic = offload.Traffic{} }

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
// breakdown and the result. Energy and traffic are accounted on the
// device. The flow follows the paper's basic offloading mechanism:
// connect, transfer parameters/files, let the cloud prepare a runtime,
// push code if the cloud lacks it, execute, download the result.
func (d *Device) Offload(p *sim.Proc, task workload.Task, codeSize host.Bytes, gw offload.Gateway) (offload.Phases, offload.Result, error) {
	reqStart := d.E.Now()
	var ph offload.Phases
	var upAir, downAir time.Duration
	req := offload.ExecRequest{
		DeviceID:      d.Name,
		AID:           offload.AID(task.App, codeSize),
		App:           task.App,
		Method:        task.Method,
		Seq:           task.Seq,
		Params:        task.Params,
		ParamBytes:    task.ParamBytes,
		FileBytes:     task.FileBytes,
		RoundTrips:    task.RoundTrips,
		InteractBytes: task.InteractBytes,
	}
	var sp *obs.Span
	if d.spans {
		sp = obs.NewSpan()
		d.lastSpan = sp
		req.SetSpan(sp)
	}

	// Phase: network connection. A fault here burned the attempt's setup
	// time (accounted in the phase) but left no connection.
	connDur, err := d.Link.Connect(p)
	ph.NetworkConnection = connDur
	sp.Add(obs.StageConnect, connDur)
	if err != nil {
		return ph, offload.Result{}, fmt.Errorf("device %s: connect: %w", d.Name, err)
	}

	// Phase: data transfer (request payload).
	dur, err := d.Link.Upload(p, task.UploadBytes()+offload.ControlBytes)
	ph.DataTransfer += dur
	sp.Add(obs.StageTransfer, dur)
	upAir += dur
	if err != nil {
		return ph, offload.Result{}, fmt.Errorf("device %s: uploading request: %w", d.Name, err)
	}
	d.traffic.FileParamUp += task.UploadBytes()
	d.traffic.ControlUp += offload.ControlBytes

	// Phase: runtime preparation (cloud side; the device waits).
	prepStart := d.E.Now()
	sess, err := gw.Prepare(p, req)
	if err != nil {
		return ph, offload.Result{}, fmt.Errorf("device %s: %w", d.Name, err)
	}
	defer sess.Release()
	prepDur := (d.E.Now() - prepStart).Duration()
	ph.RuntimePreparation = prepDur
	sp.Add(obs.StagePrepare, prepDur)

	// pushCode runs the duplicate-code exchange: NEED_CODE reply down,
	// code blob up, server-side staging. Used both when Prepare asks up
	// front and when Execute re-claims a push another device abandoned.
	pushCode := func() error {
		dur, err := d.Link.Download(p, offload.ControlBytes) // NEED_CODE reply
		ph.DataTransfer += dur
		sp.Add(obs.StageTransfer, dur)
		downAir += dur
		if err != nil {
			return fmt.Errorf("device %s: receiving NEED_CODE: %w", d.Name, err)
		}
		d.traffic.Down += offload.ControlBytes
		// Delta push: offer the blob's chunk manifest and transfer only the
		// chunks the warehouse is missing. The negotiation costs one control
		// round trip carrying the packed hash lists; a Supported=false reply
		// falls through to the full transfer below.
		if d.chunked {
			if cs, ok := sess.(offload.ChunkedSession); ok {
				offer := offload.ChunkOffer{
					AID: req.AID, App: task.App, Size: codeSize, Seq: task.Seq,
					Hashes: offload.SyntheticManifest(task.App, codeSize),
				}
				offerBytes := host.Bytes(len(offload.PackHashes(offer.Hashes))) + offload.ControlBytes
				dur, err = d.Link.Upload(p, offerBytes)
				ph.DataTransfer += dur
				sp.Add(obs.StageTransfer, dur)
				upAir += dur
				if err != nil {
					return fmt.Errorf("device %s: offering chunks: %w", d.Name, err)
				}
				d.traffic.ControlUp += offerBytes
				need, nerr := cs.NegotiateChunks(p, offer)
				if nerr != nil {
					return fmt.Errorf("device %s: negotiating chunks: %w", d.Name, nerr)
				}
				needBytes := host.Bytes(len(offload.PackHashes(need.Missing))) + offload.ControlBytes
				dur, err = d.Link.Download(p, needBytes)
				ph.DataTransfer += dur
				sp.Add(obs.StageTransfer, dur)
				downAir += dur
				if err != nil {
					return fmt.Errorf("device %s: receiving chunk needs: %w", d.Name, err)
				}
				d.traffic.Down += needBytes
				if need.Supported {
					delta := offload.DeltaBytes(offer, need.Missing)
					if delta > 0 {
						dur, err = d.Link.Upload(p, delta)
						ph.DataTransfer += dur
						sp.Add(obs.StageTransfer, dur)
						upAir += dur
						if err != nil {
							return fmt.Errorf("device %s: uploading chunk delta: %w", d.Name, err)
						}
					}
					d.traffic.CodeUp += delta
					loadStart := d.E.Now()
					if err := cs.PushChunks(p, offer, need.Missing); err != nil {
						return fmt.Errorf("device %s: pushing chunks: %w", d.Name, err)
					}
					pushDur := (d.E.Now() - loadStart).Duration()
					ph.RuntimePreparation += pushDur
					sp.Add(obs.StagePrepare, pushDur)
					return nil
				}
			}
		}
		dur, err = d.Link.Upload(p, codeSize)
		ph.DataTransfer += dur
		sp.Add(obs.StageTransfer, dur)
		upAir += dur
		if err != nil {
			return fmt.Errorf("device %s: uploading code: %w", d.Name, err)
		}
		d.traffic.CodeUp += codeSize
		loadStart := d.E.Now()
		if err := sess.PushCode(p, offload.CodePush{AID: req.AID, App: task.App, Size: codeSize}); err != nil {
			return fmt.Errorf("device %s: pushing code: %w", d.Name, err)
		}
		// Server-side staging/ClassLoader time counts as preparation.
		pushDur := (d.E.Now() - loadStart).Duration()
		ph.RuntimePreparation += pushDur
		sp.Add(obs.StagePrepare, pushDur)
		return nil
	}

	// Duplicate code transfer happens only when the cloud asks for it.
	if sess.NeedCode() {
		if err := pushCode(); err != nil {
			return ph, offload.Result{}, err
		}
	}

	// Phase: computation execution, including the client side of any
	// mid-execution interaction (the server side runs inside Execute).
	execStart := d.E.Now()
	var res offload.Result
	for {
		res, err = sess.Execute(p)
		if errors.Is(err, offload.ErrCodeNeeded) {
			// The push this session was waiting on aborted and the cloud
			// handed the claim to us: supply the code, then execute.
			if perr := pushCode(); perr != nil {
				return ph, res, perr
			}
			continue
		}
		break
	}
	if err != nil {
		return ph, res, fmt.Errorf("device %s: %w", d.Name, err)
	}
	// Interaction payloads ride the open stream pipelined with execution
	// (their latency is inside Execute, on the server's network path).
	if task.RoundTrips > 0 {
		n := host.Bytes(task.RoundTrips) * task.InteractBytes
		d.traffic.FileParamUp += n
		d.traffic.Down += n
	}
	execDur := (d.E.Now() - execStart).Duration()
	ph.ComputationExecution = execDur
	sp.Add(obs.StageExecute, execDur)
	if res.Err != "" {
		return ph, res, fmt.Errorf("device %s: cloud error: %s", d.Name, res.Err)
	}

	// Phase: data transfer (result download).
	dur, err = d.Link.Download(p, res.ResultBytes+offload.ControlBytes)
	ph.DataTransfer += dur
	sp.Add(obs.StageTransfer, dur)
	downAir += dur
	if err != nil {
		return ph, res, fmt.Errorf("device %s: downloading result: %w", d.Name, err)
	}
	d.traffic.Down += res.ResultBytes + offload.ControlBytes

	d.Meter.AddOffload(d.Radio, power.OffloadBreakdown{
		Phases:      ph,
		UpAirtime:   upAir,
		DownAirtime: downAir,
	}, reqStart.Duration(), d.E.Now().Duration())
	return ph, res, nil
}

// BatchResult is one task's outcome from OffloadBatch.
type BatchResult struct {
	Phases offload.Phases
	Res    offload.Result
	Err    error
}

// OffloadBatch offloads tasks concurrently with at most depth in flight —
// the simulated mirror of the realtime server's per-connection
// pipelining. Each task runs its full offload exchange as its own spawned
// process; the batch admits the next task as soon as a slot frees and
// returns, in task order, once all have finished. Tasks must carry
// distinct Seq values (NewTask guarantees this). The engine's cooperative
// scheduling keeps the admission bookkeeping race-free and the schedule
// deterministic per seed.
func (d *Device) OffloadBatch(p *sim.Proc, tasks []workload.Task, codeSize host.Bytes, gw offload.Gateway, depth int) []BatchResult {
	if depth < 1 {
		depth = 1
	}
	out := make([]BatchResult, len(tasks))
	inflight, done, next := 0, 0, 0
	// One-shot wake signal per wait round; the first finishing worker
	// fires and clears it, later finishers in the same round skip.
	var wake *sim.Signal
	for done < len(tasks) {
		for next < len(tasks) && inflight < depth {
			idx := next
			task := tasks[idx]
			next++
			inflight++
			d.E.Spawn(fmt.Sprintf("%s.batch%d", d.Name, idx), func(wp *sim.Proc) {
				ph, res, err := d.Offload(wp, task, codeSize, gw)
				out[idx] = BatchResult{Phases: ph, Res: res, Err: err}
				inflight--
				done++
				if wake != nil {
					w := wake
					wake = nil
					w.Fire()
				}
			})
		}
		if done < len(tasks) {
			wake = sim.NewSignal(d.E)
			p.Wait(wake)
		}
	}
	return out
}

// RetryPolicy governs OffloadRetry: exponential backoff with jitter,
// honoring the cloud's retry-after hint on overload rejections.
type RetryPolicy struct {
	MaxAttempts int           // total tries including the first (default 4)
	BaseDelay   time.Duration // backoff before the first retry (default 200ms)
	MaxDelay    time.Duration // backoff ceiling (default 5s)
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 4
	}
	if rp.BaseDelay <= 0 {
		rp.BaseDelay = 200 * time.Millisecond
	}
	if rp.MaxDelay <= 0 {
		rp.MaxDelay = 5 * time.Second
	}
	return rp
}

// Retryable reports whether an offload failure is worth retrying: injected
// transport faults (the request may never have reached the cloud) and
// overload rejections (the cloud asked us to come back). Application
// errors and protocol violations are permanent.
func Retryable(err error) bool {
	return faults.IsTransient(err) || errors.Is(err, offload.ErrOverloaded)
}

// OffloadRetry runs Offload with up to MaxAttempts tries, sleeping an
// exponentially growing, jittered backoff between attempts. Retries are
// safe because requests carry a (DeviceID, Seq) idempotency key: a retry
// of a request whose result was computed but lost is answered from the
// server's dedup window without re-executing. Phase durations accumulate
// across attempts (the device's radio was busy for all of them). It
// returns the number of attempts made.
func (d *Device) OffloadRetry(p *sim.Proc, task workload.Task, codeSize host.Bytes, gw offload.Gateway, rp RetryPolicy) (attempts int, ph offload.Phases, res offload.Result, err error) {
	rp = rp.withDefaults()
	for attempts = 1; ; attempts++ {
		var aph offload.Phases
		aph, res, err = d.Offload(p, task, codeSize, gw)
		ph.NetworkConnection += aph.NetworkConnection
		ph.DataTransfer += aph.DataTransfer
		ph.RuntimePreparation += aph.RuntimePreparation
		ph.ComputationExecution += aph.ComputationExecution
		if err == nil || attempts >= rp.MaxAttempts || !Retryable(err) {
			return attempts, ph, res, err
		}
		p.Sleep(d.backoff(rp, attempts, err))
	}
}

// backoff computes the pre-retry delay after the attempt'th failure:
// BaseDelay doubled per attempt, capped at MaxDelay, with ±25% jitter
// from the device rng (deterministic per seed) to spread retry herds.
// An overload rejection's retry-after hint sets the floor.
func (d *Device) backoff(rp RetryPolicy, attempt int, cause error) time.Duration {
	delay := rp.BaseDelay << uint(attempt-1)
	if delay > rp.MaxDelay || delay <= 0 {
		delay = rp.MaxDelay
	}
	jitter := time.Duration(float64(delay) * 0.25 * (2*d.rng.Float64() - 1))
	delay += jitter
	var over *offload.OverloadedError
	if errors.As(cause, &over) && delay < over.RetryAfter {
		delay = over.RetryAfter
	}
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	return delay
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

// Estimate predicts offload cost for a task from the link profile and the
// task's wire sizes, with a profiling-based prediction of its computation
// (the device has executed this app locally before; MAUI-style frameworks
// keep exactly this history).
func (d *Device) Estimate(task workload.Task, codeSize host.Bytes) (Estimate, error) {
	m, err := d.reg.Execute(task)
	if err != nil {
		return Estimate{}, err
	}
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

	est := Estimate{
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
	return est, nil
}

// MaybeOffload runs the framework's decision: it offloads through gw when
// predicted beneficial, otherwise executes locally. It reports which path
// ran.
func (d *Device) MaybeOffload(p *sim.Proc, task workload.Task, codeSize host.Bytes, gw offload.Gateway) (offloaded bool, ph offload.Phases, res offload.Result, err error) {
	est, err := d.Estimate(task, codeSize)
	if err != nil {
		return false, ph, res, err
	}
	if !est.ShouldOffload() {
		_, m, lerr := d.ExecuteLocal(p, task)
		if lerr != nil {
			return false, ph, res, lerr
		}
		return false, ph, offload.Result{Output: m.Output, ResultBytes: m.ResultBytes}, nil
	}
	ph, res, err = d.Offload(p, task, codeSize, gw)
	return true, ph, res, err
}
