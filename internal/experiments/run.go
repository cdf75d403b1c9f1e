// Package experiments implements the evaluation harness: one runner per
// table and figure of the paper (§III and §VI). Every runner assembles a
// deterministic simulation — cloud platform, five devices, a request
// schedule — executes it on the discrete-event engine, and reduces the
// records to the rows/series the paper reports. RunOracle makes every run
// once. Absolute numbers depend on the calibrated substrate; the shapes (who
// wins, by what factor, where crossovers fall) are the rows of Claims.
package experiments

import (
	"fmt"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/metrics"
	"rattrap/internal/netsim"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// RunConfig describes one experiment run.
type RunConfig struct {
	Kind    core.Kind
	Profile netsim.Profile
	// Devices is the number of client handsets (5 in the paper).
	Devices int
	// RequestsPerDevice is the closed-loop request count per device
	// (5 devices × 4 = the paper's "first 20 offloading requests").
	RequestsPerDevice int
	// Apps are drawn round-robin per device request; a single entry runs
	// one workload throughout.
	Apps []string
	// Stagger separates device start times.
	Stagger time.Duration
	// Seed drives all randomness.
	Seed int64
	// Spans, when true, collects a per-request observability span on every
	// device (RequestRecord.Span): the four top-level stages mirror the
	// phase accumulation exactly, and the platform's dispatcher/warehouse/
	// runtime sub-stages nest under them. All durations are virtual time,
	// bit-deterministic per seed.
	Spans bool
	// Obs, when non-nil, is installed on the platform (core.SetObs) so the
	// run populates aggregate counters, gauges and stage histograms.
	Obs *obs.Registry
}

// DefaultRun returns the paper's standard setup for one workload.
func DefaultRun(kind core.Kind, profile netsim.Profile, app string, seed int64) RunConfig {
	return RunConfig{
		Kind: kind, Profile: profile, Devices: 5, RequestsPerDevice: 4,
		Apps: []string{app}, Stagger: 300 * time.Millisecond, Seed: seed,
	}
}

// RequestRecord is one offloading request's measurements.
type RequestRecord struct {
	Device  string
	App     string
	Index   int // per-device request index
	Start   sim.Time
	End     sim.Time
	Phases  offload.Phases
	Local   time.Duration // local-execution time of the same task
	Speedup float64       // Local / offloading response
	// Offloaded is false when the client framework's decision engine
	// predicted offloading unprofitable and ran locally instead.
	Offloaded bool
	// EnergyJ is device energy for the offloaded request; LocalEnergyJ is
	// the energy running it on the handset instead.
	EnergyJ      float64
	LocalEnergyJ float64
	Err          string
	// Span is the request's stage breakdown (nil unless RunConfig.Spans;
	// also nil for requests the decision engine ran locally).
	Span *obs.Span
}

// Failed reports an offloading failure (speedup below 1, §III-B).
func (r RequestRecord) Failed() bool { return r.Err != "" || r.Speedup < 1 }

// RunResult is everything a run produced.
type RunResult struct {
	Cfg     RunConfig
	Records []RequestRecord
	// Runtimes snapshots the Container DB at the end of the run.
	Runtimes []*core.RuntimeInfo
	// DeviceTraffic sums all devices' migrated-data accounting.
	DeviceTraffic offload.Traffic
	// Server timelines, one sample per second from time zero to Horizon.
	ServerCPU     []float64
	ServerIORead  []float64
	ServerIOWrite []float64
	Horizon       time.Duration
	// Warehouse stats (zero for baselines).
	WarehouseEntries, WarehouseHits int
}

// tasks runs each distinct task of the experiments' runs once per process:
// the oracle replays the same seeded tasks across platforms, networks and
// artefacts, and nine in ten of its kernel runs repeated an earlier one.
// A device's estimate and the cloud runtime both take the task's shared
// outcome as its Precomputed. Every outcome is the kernel's, so what a run
// reports does not depend on which earlier run filled the memo; how many
// kernels it runs does. A test that swaps in a fresh memo to count them
// must not run beside another test of the package (none calls t.Parallel).
var tasks = workload.NewMemo()

// newDevice creates a LAN-attached device (the common case in runners).
func newDevice(e *sim.Engine, name string) (*device.Device, error) {
	return device.New(e, name, netsim.LANWiFi())
}

// Run executes the experiment.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Devices <= 0 || cfg.RequestsPerDevice <= 0 || len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("experiments: bad config %+v", cfg)
	}
	for _, a := range cfg.Apps {
		if _, err := workload.ByName(a); err != nil {
			return nil, err
		}
	}
	e := sim.NewEngine(cfg.Seed)
	pl := core.New(e, core.DefaultConfig(cfg.Kind))
	if cfg.Obs != nil {
		pl.SetObs(cfg.Obs)
	}
	// Fig. 2's server timelines (ServerCPU, ServerIORead, ServerIOWrite).
	pl.Server.RecordTimelines()

	res := &RunResult{Cfg: cfg}
	var runErr error
	for i := 0; i < cfg.Devices; i++ {
		i := i
		dev, err := device.New(e, fmt.Sprintf("phone-%d", i+1), cfg.Profile)
		if err != nil {
			return nil, err
		}
		dev.EnableSpans(cfg.Spans)
		e.Spawn(dev.Name, func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * cfg.Stagger)
			for r := 0; r < cfg.RequestsPerDevice; r++ {
				appName := cfg.Apps[r%len(cfg.Apps)]
				app, _ := workload.ByName(appName)
				rec := RequestRecord{Device: dev.Name, App: appName, Index: r, Start: e.Now()}
				before := dev.Meter.Joules
				task := dev.NewTask(app)
				tasks.Attach(&task)
				est, ph, result, err := dev.MaybeOffload(p, task, app.CodeSize(), pl)
				offloaded := est.ShouldOffload()
				if err != nil && !offloaded {
					runErr = err // the task's kernel failed
					return
				}
				rec.End = e.Now()
				rec.Phases = ph
				rec.Offloaded = offloaded
				rec.Local = est.LocalTime
				rec.LocalEnergyJ = est.LocalEnergyJ
				if offloaded {
					rec.Span = dev.LastSpan()
				}
				rec.EnergyJ = dev.Meter.Joules - before
				if err != nil {
					rec.Err = err.Error()
				} else if resp := ph.Response(); offloaded && resp > 0 {
					rec.Speedup = float64(est.LocalTime) / float64(resp)
					rec.Err = result.Err
				}
				res.Records = append(res.Records, rec)
			}
			res.DeviceTraffic.Add(dev.Traffic())
		})
	}
	e.Run()
	if runErr != nil {
		return nil, runErr
	}
	if live := e.LiveProcs(); live != 0 {
		return nil, fmt.Errorf("experiments: %d procs deadlocked", live)
	}

	res.Runtimes = pl.DB().List()
	if wh := pl.Warehouse(); wh != nil {
		res.WarehouseEntries, res.WarehouseHits, _ = wh.Stats()
	}
	res.Horizon = e.Now().Duration().Truncate(time.Second) + time.Second
	end := sim.Time(res.Horizon)
	res.ServerCPU = pl.Server.CPUUtilization(0, end, time.Second)
	res.ServerIORead = pl.Server.DiskReadMBps(0, end, time.Second)
	res.ServerIOWrite = pl.Server.DiskWriteMBps(0, end, time.Second)
	return res, nil
}

// MeanPhases averages phase durations (seconds) over successful records.
func (r *RunResult) MeanPhases() (conn, transfer, prep, comp float64) {
	var cs, ts, ps, es []float64
	for _, rec := range r.Records {
		if rec.Err != "" || !rec.Offloaded {
			continue
		}
		cs = append(cs, rec.Phases.NetworkConnection.Seconds())
		ts = append(ts, rec.Phases.DataTransfer.Seconds())
		ps = append(ps, rec.Phases.RuntimePreparation.Seconds())
		es = append(es, rec.Phases.ComputationExecution.Seconds())
	}
	return metrics.Mean(cs), metrics.Mean(ts), metrics.Mean(ps), metrics.Mean(es)
}

// MeanEnergyNormalized is mean offload energy divided by mean local energy
// (Figure 10's normalization).
func (r *RunResult) MeanEnergyNormalized() float64 {
	var off, loc []float64
	for _, rec := range r.Records {
		if rec.Err != "" {
			continue
		}
		off = append(off, rec.EnergyJ)
		loc = append(loc, rec.LocalEnergyJ)
	}
	l := metrics.Mean(loc)
	if l == 0 {
		return 0
	}
	return metrics.Mean(off) / l
}
