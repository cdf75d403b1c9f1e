package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/faults"
	"rattrap/internal/metrics"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// The autoscale experiment answers the elastic-pool question in virtual
// time: under bursty open-loop arrivals, does a pool that grows and
// shrinks itself beat a fixed pool of the same *average* size? Every cell
// replays one precomputed arrival schedule — bursts of requests landing
// on an idle platform, then nothing for most of the cycle — against its
// own engine, so the only variable is the pool policy. A sampler proc
// integrates pool size over the serving window, which is what makes
// "equal average size" a measured quantity rather than a knob.
//
// Cells drive core.Platform directly (Prepare / PushCode / Execute /
// Release) with no modeled network, so latency is queueing + runtime
// preparation + execution — exactly the costs pool sizing moves. All
// numbers are virtual-time deterministic per seed.

// AutoscaleConfig parameterizes the sweep. The zero value is unusable;
// use DefaultAutoscaleConfig.
type AutoscaleConfig struct {
	Seed int64
	// Order is the Linpack system order (sets per-request compute).
	Order int
	// Bursts arrive every BurstEvery starting at FirstBurst; each is
	// BurstSize requests spread over BurstSpread.
	Bursts      int
	BurstSize   int
	FirstBurst  time.Duration
	BurstEvery  time.Duration
	BurstSpread time.Duration
	// MaxRuntimes caps every cell; FixedSizes lists the static pools to
	// race the autoscaler against.
	MaxRuntimes int
	FixedSizes  []int
	// SamplePeriod is the pool-size integration step.
	SamplePeriod time.Duration
}

// AutoscaleFaultFloor is MinRuntimes in the teardown-fault cell: the pool
// size the remediation gate requires the cell to settle back at.
const AutoscaleFaultFloor = 2

// DefaultAutoscaleConfig is the sweep BENCH_autoscale.json is pinned at.
func DefaultAutoscaleConfig(seed int64) AutoscaleConfig {
	return AutoscaleConfig{
		Seed:         seed,
		Order:        96, // ~0.5 s virtual execution on the cloud host
		Bursts:       4,
		BurstSize:    24,
		FirstBurst:   5 * time.Second,
		BurstEvery:   20 * time.Second,
		BurstSpread:  500 * time.Millisecond,
		MaxRuntimes:  8,
		FixedSizes:   []int{1, 2, 3, 4, 8},
		SamplePeriod: 250 * time.Millisecond,
	}
}

// horizon is the sampling window: first arrival to one full cycle past
// the last burst, covering the autoscaler's post-burst shrink.
func (c AutoscaleConfig) horizon() time.Duration {
	return c.FirstBurst + time.Duration(c.Bursts)*c.BurstEvery
}

// schedule precomputes the arrival offsets all cells replay. Jitter
// within a burst comes from the config seed, never from a cell's engine,
// so every cell sees byte-identical arrivals.
func (c AutoscaleConfig) schedule() []time.Duration {
	rng := rand.New(rand.NewSource(c.Seed))
	var at []time.Duration
	for b := 0; b < c.Bursts; b++ {
		base := c.FirstBurst + time.Duration(b)*c.BurstEvery
		for i := 0; i < c.BurstSize; i++ {
			at = append(at, base+time.Duration(rng.Int63n(int64(c.BurstSpread))))
		}
	}
	return at
}

// AutoscaleCell is one pool policy's run over the shared schedule.
type AutoscaleCell struct {
	Name string `json:"name"`
	// FixedSize is the static pool size; 0 marks an autoscaled cell.
	FixedSize int `json:"fixed_size,omitempty"`
	Requests  int `json:"requests"`
	Succeeded int `json:"succeeded"`
	// Virtual-time latency over successful requests, arrival to result.
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
	MaxMillis float64 `json:"max_ms"`
	// Pool-size integral over the sampling window.
	AvgPool  float64 `json:"avg_pool"`
	PeakPool int     `json:"peak_pool"`
	// FinalPool is the census after the engine drains (autoscaled cells
	// settle at MinRuntimes).
	FinalPool int `json:"final_pool"`
	// DrainingFinal must be zero: a non-zero value is the capacity leak
	// the draining-slot bugfix closed.
	DrainingFinal int `json:"draining_final"`
	// Remediation counters (autoscaled cells only).
	TeardownFailures int `json:"teardown_failures,omitempty"`
	InjectedFaults   int `json:"injected_faults,omitempty"`
}

// AutoscaleReport is BENCH_autoscale.json. Everything in it is virtual
// time, so the file is bit-identical across runs at one seed.
type AutoscaleReport struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Bursts    int             `json:"bursts"`
	BurstSize int             `json:"burst_size"`
	BurstSecs float64         `json:"burst_every_s"`
	Max       int             `json:"max_runtimes"`
	Auto      AutoscaleCell   `json:"auto"`
	Fixed     []AutoscaleCell `json:"fixed"`
	Fault     AutoscaleCell   `json:"teardown_fault"`
	// KStar is round(Auto.AvgPool) clamped to the swept fixed sizes: the
	// fixed pool "of equal average size" the headline compares against.
	KStar int `json:"k_star"`
	// Headline: autoscaled p99 over fixed-KStar p99 (< 1 is a win).
	P99VsKStar float64 `json:"p99_vs_k_star"`
}

// RunAutoscale races the autoscaled pool against each fixed size over the
// shared schedule, plus one autoscaled cell with injected teardown faults
// (the zero-permanent-capacity-loss check).
func RunAutoscale(cfg AutoscaleConfig) (*AutoscaleReport, error) {
	if cfg.Bursts <= 0 || cfg.BurstSize <= 0 || cfg.MaxRuntimes <= 0 {
		return nil, fmt.Errorf("experiments: bad autoscale config %+v", cfg)
	}
	arrivals := cfg.schedule()
	rep := &AutoscaleReport{
		Workload:  fmt.Sprintf("%s (n=%d)", workload.NameLinpack, cfg.Order),
		Seed:      cfg.Seed,
		Bursts:    cfg.Bursts,
		BurstSize: cfg.BurstSize,
		BurstSecs: cfg.BurstEvery.Seconds(),
		Max:       cfg.MaxRuntimes,
	}

	auto, err := runAutoscaleCell(cfg, arrivals, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("auto cell: %w", err)
	}
	rep.Auto = *auto

	for _, k := range cfg.FixedSizes {
		cell, err := runAutoscaleCell(cfg, arrivals, k, nil)
		if err != nil {
			return nil, fmt.Errorf("fixed-%d cell: %w", k, err)
		}
		rep.Fixed = append(rep.Fixed, *cell)
	}

	// Remediation cell: every other teardown fails at the Destroy/Stop
	// layer. The repaired StopRuntime still reclaims the slot, so the
	// pool must settle back at its floor with a clean census.
	plan := faults.Plan{Name: "teardown-fault", Seed: cfg.Seed, Rules: []faults.Rule{
		{Site: faults.SiteTeardown, Kind: faults.Drop, Every: 2},
	}}
	fault, err := runAutoscaleCell(cfg, arrivals, 0, &plan)
	if err != nil {
		return nil, fmt.Errorf("teardown-fault cell: %w", err)
	}
	rep.Fault = *fault

	rep.KStar = int(rep.Auto.AvgPool + 0.5)
	if rep.KStar < 1 {
		rep.KStar = 1
	}
	if n := len(cfg.FixedSizes); n > 0 && rep.KStar > cfg.FixedSizes[n-1] {
		rep.KStar = cfg.FixedSizes[n-1]
	}
	for _, cell := range rep.Fixed {
		if cell.FixedSize == rep.KStar && cell.P99Millis > 0 {
			rep.P99VsKStar = rep.Auto.P99Millis / cell.P99Millis
		}
	}
	return rep, nil
}

// runAutoscaleCell replays the schedule against one pool policy. fixed
// > 0 runs a prewarmed static pool with the autoscaler off; fixed == 0
// runs the elastic pool (scale-to-zero, or floor 2 when a fault plan
// makes this the remediation cell).
func runAutoscaleCell(cfg AutoscaleConfig, arrivals []time.Duration, fixed int, plan *faults.Plan) (*AutoscaleCell, error) {
	app, err := workload.ByName(workload.NameLinpack)
	if err != nil {
		return nil, err
	}
	params := workload.EncodeLinpackParams(cfg.Seed, cfg.Order)

	e := sim.NewEngine(cfg.Seed)
	pcfg := core.DefaultConfig(core.KindRattrap)
	cell := &AutoscaleCell{}
	if fixed > 0 {
		cell.Name = fmt.Sprintf("fixed-%d", fixed)
		cell.FixedSize = fixed
		pcfg.MaxRuntimes = fixed
		pcfg.IdleTimeout = 0 // prewarmed and kept warm: the classic regime
	} else {
		cell.Name = "autoscale"
		pcfg.MaxRuntimes = cfg.MaxRuntimes
		pcfg.MinRuntimes = 0
		pcfg.Autoscale = core.AutoscaleConfig{
			Enabled:     true,
			Interval:    200 * time.Millisecond,
			GrowPerTick: 2,
			ShrinkAfter: 3,
		}
		if plan != nil {
			cell.Name = "autoscale+" + plan.Name
			// A floor keeps churn going after the bursts, so the cell
			// exercises teardown faults on the way back down to it.
			pcfg.MinRuntimes = AutoscaleFaultFloor
		}
	}
	pl := core.New(e, pcfg)

	var inj *faults.Injector
	if plan != nil {
		inj = faults.New(*plan)
		pl.SetTeardownFault(inj.TeardownHook())
	}

	if fixed > 0 {
		// Prewarm the static pool before any arrival, matching the
		// pre-started pools the paper's §III-B critique targets. Boots
		// run in parallel so even the largest pool is warm well before
		// the first burst; a sequential prewarm would still be booting
		// when arrivals land, and the request path would boot extras.
		for i := 0; i < fixed; i++ {
			e.Spawn(fmt.Sprintf("prewarm-%d", i), func(p *sim.Proc) {
				if _, err := pl.BootRuntime(p); err != nil {
					panic(fmt.Sprintf("prewarm boot: %v", err))
				}
			})
		}
	}

	latencies := make([]float64, 0, len(arrivals))
	for i, at := range arrivals {
		i, at := i, at
		e.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			p.Sleep(at)
			start := e.Now()
			c := device.Client{ID: fmt.Sprintf("dev-%d", i)}
			task := workload.Task{App: app.Name(), Method: "solve", Params: params}
			if _, err := c.Attempt(p, pl, task, app.CodeSize(), nil); err != nil {
				return
			}
			cell.Succeeded++
			latencies = append(latencies, (e.Now() - start).Duration().Seconds())
		})
	}

	// The sampler integrates pool size over the fixed horizon; its
	// bounded loop is what lets the engine's event queue drain.
	samples := int(cfg.horizon() / cfg.SamplePeriod)
	var sum, peak int
	e.Spawn("pool-sampler", func(p *sim.Proc) {
		for s := 0; s < samples; s++ {
			p.Sleep(cfg.SamplePeriod)
			n := pl.RuntimeCount()
			sum += n
			if n > peak {
				peak = n
			}
		}
	})

	e.Run()
	if live := e.LiveProcs(); live != 0 {
		return nil, fmt.Errorf("%d procs deadlocked", live)
	}

	cell.Requests = len(arrivals)
	if samples > 0 {
		cell.AvgPool = float64(sum) / float64(samples)
	}
	cell.PeakPool = peak
	cell.FinalPool = pl.RuntimeCount()
	cell.DrainingFinal = pl.DB().StateCount(core.LifecycleDraining)
	cell.TeardownFailures = pl.FailureCount(core.FailTeardown)
	if inj != nil {
		cell.InjectedFaults = inj.Injected()
	}
	if len(latencies) > 0 {
		ms := func(s float64) float64 { return s * 1e3 }
		cell.P50Millis = ms(metrics.Percentile(latencies, 50))
		cell.P99Millis = ms(metrics.Percentile(latencies, 99))
		cell.MaxMillis = ms(metrics.Percentile(latencies, 100))
	}
	return cell, nil
}
