package experiments

import (
	"fmt"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/metrics"
	"rattrap/internal/netsim"
	"rattrap/internal/sim"
	"rattrap/internal/trace"
	"rattrap/internal/workload"
)

// Figure11 reproduces "Rattrap improvements with real-world access
// traces": the same LiveLab-style trace replayed (open loop) against all
// three platforms, reduced to a CDF of ChessGame speedups plus the
// offloading-failure rates.
type Figure11 struct {
	// Speedups[kind] are the per-request ChessGame speedups.
	Speedups map[core.Kind][]float64
	// FailureRate[kind] is the fraction of ChessGame requests with
	// speedup below 1 (paper: 9.7% VM, 7.7% W/O, 1.3% Rattrap).
	FailureRate map[core.Kind]float64
	// Above3 is the fraction of requests with speedup over 3.0x
	// (paper: 11.5% / 50.8% / 54.0%).
	Above3 map[core.Kind]float64
	Kinds  []core.Kind
}

// traceProfiles maps trace devices to network scenarios: real users sit on
// a mix of WiFi and cellular, which is what spreads the CDF.
func traceProfiles() []netsim.Profile {
	return []netsim.Profile{
		netsim.LANWiFi(), netsim.WANWiFi(), netsim.FourG(), netsim.WANWiFi(), netsim.FourG(),
	}
}

// RunTrace replays the trace tcfg generates, open loop, on each platform.
// A positive idleTimeout has the Monitor & Scheduler reclaim runtimes idle
// that long (core.Config.IdleTimeout): Rattrap's 2 s boot turns that into
// just-in-time provisioning, while the VM cloud's sessions start cold.
func RunTrace(tcfg trace.Config, idleTimeout time.Duration) (*Figure11, error) {
	events, err := trace.Generate(tcfg)
	if err != nil {
		return nil, err
	}
	seed := tcfg.Seed
	f := &Figure11{
		Speedups:    make(map[core.Kind][]float64),
		FailureRate: make(map[core.Kind]float64),
		Above3:      make(map[core.Kind]float64),
		Kinds:       []core.Kind{core.KindRattrap, core.KindRattrapWO, core.KindVM},
	}
	// One replay per platform; each builds its own engine and devices, so
	// the three run concurrently on the RunCells pool (events are shared
	// read-only input).
	perKind := make([][]float64, len(f.Kinds))
	err = RunCells(len(f.Kinds), func(i int) error {
		speedups, err := replay(seed, f.Kinds[i], events, idleTimeout)
		if err != nil {
			return fmt.Errorf("figure 11 (%v): %w", f.Kinds[i], err)
		}
		perKind[i] = speedups
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, kind := range f.Kinds {
		speedups := perKind[i]
		f.Speedups[kind] = speedups
		cdf := metrics.NewCDF(speedups)
		f.FailureRate[kind] = cdf.FractionBelow(1.0)
		f.Above3[kind] = cdf.FractionAbove(3.0)
	}
	return f, nil
}

// replay runs the trace open-loop against one platform and returns the
// ChessGame speedups. "For fair comparison, we use a separate experiment
// to obtain the local execution time for calculating speedup" — local
// times are the device's estimate, not the loaded server.
func replay(seed int64, kind core.Kind, events []trace.Event, idleTimeout time.Duration) ([]float64, error) {
	e := sim.NewEngine(seed)
	cfg := core.DefaultConfig(kind)
	cfg.IdleTimeout = idleTimeout
	pl := core.New(e, cfg)
	profiles := traceProfiles()

	devices := make([]*device.Device, len(profiles))
	for i := range devices {
		d, err := device.New(e, fmt.Sprintf("phone-%d", i+1), profiles[i%len(profiles)])
		if err != nil {
			return nil, err
		}
		devices[i] = d
	}

	var speedups []float64
	var runErr error
	for _, ev := range events {
		ev := ev
		dev := devices[ev.Device%len(devices)]
		e.At(sim.Time(ev.At), func() {
			e.Spawn("req", func(p *sim.Proc) {
				app, err := workload.ByName(ev.App)
				if err != nil {
					runErr = err
					return
				}
				task := dev.NewTask(app)
				tasks.Attach(&task)
				est, ph, _, err := dev.MaybeOffload(p, task, app.CodeSize(), pl)
				if err != nil && !est.ShouldOffload() {
					runErr = err // the task's kernel failed
					return
				}
				if ev.App != workload.NameChess || !est.ShouldOffload() {
					return // the paper presents the ChessGame CDF
				}
				if err != nil {
					speedups = append(speedups, 0) // hard failure
					return
				}
				speedups = append(speedups, float64(est.LocalTime)/float64(ph.Response()))
			})
		})
	}
	e.Run()
	if runErr != nil {
		return nil, runErr
	}
	return speedups, nil
}

// Tables builds the CDF and the headline fractions.
func (f *Figure11) Tables() []*metrics.Table {
	tb := metrics.NewTable("Figure 11 — trace-based simulation, ChessGame speedup CDF",
		"speedup", "Rattrap", "Rattrap(W/O)", "VM")
	for _, x := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5} {
		row := []string{metrics.F(x, 1)}
		for _, kind := range f.Kinds {
			row = append(row, metrics.F(metrics.NewCDF(f.Speedups[kind]).At(x), 3))
		}
		tb.AddRow(row...)
	}
	sum := metrics.NewTable("Figure 11 — summary (paper: failures 1.3%/7.7%/9.7%; >3.0x 54.0%/50.8%/11.5%)",
		"platform", "requests", "failure rate", ">3.0x")
	for _, kind := range f.Kinds {
		sum.AddRow(kind.String(), fmt.Sprintf("%d", len(f.Speedups[kind])),
			metrics.F(f.FailureRate[kind]*100, 1)+"%",
			metrics.F(f.Above3[kind]*100, 1)+"%")
	}
	return []*metrics.Table{tb, sum}
}
