package experiments

import (
	"fmt"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/faults"
	"rattrap/internal/metrics"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// FaultRunResult summarizes one run under a fault plan: how many requests
// ultimately succeeded, how many attempts that took, and the tail of the
// (virtual) response-time distribution. All numbers are deterministic per
// (plan, seed, config).
type FaultRunResult struct {
	Plan      string
	Retry     bool
	Requests  int
	Succeeded int
	// SuccessRate is Succeeded/Requests.
	SuccessRate float64
	// Attempts is the total offload attempts across all requests
	// (Requests when nothing was retried).
	Attempts int
	// Injected is the number of faults the plan fired; FaultStats breaks
	// it down by "site:kind".
	Injected   int
	FaultStats map[string]int
	// Response-time distribution over successful requests, in virtual
	// time, end-to-end including retries and backoff.
	Mean, P50, P95, P99, Max time.Duration
}

// RunFaults executes cfg's request schedule under the given fault plan.
// The plan's injector is wired into every device link, the platform's
// shared offloading-I/O mount, and the container boot path. When retry
// is false every request gets exactly one attempt (the pre-robustness
// behavior); otherwise the default offload.RetryPolicy governs backoff and
// attempt budget.
func RunFaults(cfg RunConfig, plan faults.Plan, retry bool) (*FaultRunResult, error) {
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
	inj := faults.New(plan)
	pl.SetBootFault(inj.BootHook())
	if m := pl.OffloadIO(); m != nil {
		m.SetFault(inj.FSHook())
	}

	res := &FaultRunResult{Plan: plan.Name, Retry: retry}
	var policy offload.RetryPolicy
	if !retry {
		policy.MaxAttempts = 1
	}
	var latencies []float64
	for i := 0; i < cfg.Devices; i++ {
		i := i
		dev, err := device.New(e, fmt.Sprintf("phone-%d", i+1), cfg.Profile)
		if err != nil {
			return nil, err
		}
		dev.Link.SetFault(inj.NetHook(dev.Name))
		e.Spawn(dev.Name, func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * cfg.Stagger)
			for r := 0; r < cfg.RequestsPerDevice; r++ {
				appName := cfg.Apps[r%len(cfg.Apps)]
				app, _ := workload.ByName(appName)
				task := dev.NewTask(app)
				start := e.Now()
				attempts, _, result, err := dev.OffloadRetry(p, task, app.CodeSize(), pl, policy)
				res.Requests++
				res.Attempts += attempts
				if err == nil && result.Err == "" {
					res.Succeeded++
					latencies = append(latencies, (e.Now() - start).Duration().Seconds())
				}
			}
		})
	}
	e.Run()
	if live := e.LiveProcs(); live != 0 {
		return nil, fmt.Errorf("experiments: %d procs deadlocked under plan %s", live, plan.Name)
	}

	if res.Requests > 0 {
		res.SuccessRate = float64(res.Succeeded) / float64(res.Requests)
	}
	res.Injected = inj.Injected()
	res.FaultStats = inj.Stats()
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	if len(latencies) > 0 {
		res.Mean = secs(metrics.Mean(latencies))
		res.P50 = secs(metrics.Percentile(latencies, 50))
		res.P95 = secs(metrics.Percentile(latencies, 95))
		res.P99 = secs(metrics.Percentile(latencies, 99))
		res.Max = secs(metrics.Percentile(latencies, 100))
	}
	return res, nil
}
