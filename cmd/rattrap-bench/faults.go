package main

import (
	"fmt"
	"io"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/experiments"
	"rattrap/internal/faults"
	"rattrap/internal/netsim"
	"rattrap/internal/workload"
)

// The faults mode sweeps the standard fault-plan suite over the paper's
// WAN-WiFi setup and reports, per plan, the success rate and response
// tail with single-attempt clients versus retrying clients. All numbers
// are virtual-time and deterministic per seed.

type faultModeReport struct {
	Requests    int     `json:"requests"`
	Succeeded   int     `json:"succeeded"`
	SuccessRate float64 `json:"success_rate"`
	Attempts    int     `json:"attempts"`
	MeanMs      float64 `json:"mean_ms"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
}

type faultPlanReport struct {
	Plan           string          `json:"plan"`
	InjectedFaults int             `json:"injected_faults"`
	FaultStats     map[string]int  `json:"fault_stats"`
	SingleAttempt  faultModeReport `json:"single_attempt"`
	WithRetries    faultModeReport `json:"with_retries"`
}

type faultsReport struct {
	Seed    int64             `json:"seed"`
	Profile string            `json:"profile"`
	Plans   []faultPlanReport `json:"plans"`
}

func modeReport(r *experiments.FaultRunResult) faultModeReport {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return faultModeReport{
		Requests:    r.Requests,
		Succeeded:   r.Succeeded,
		SuccessRate: r.SuccessRate,
		Attempts:    r.Attempts,
		MeanMs:      ms(r.Mean),
		P50Ms:       ms(r.P50),
		P95Ms:       ms(r.P95),
		P99Ms:       ms(r.P99),
		MaxMs:       ms(r.Max),
	}
}

// runFaults sweeps the standard plans. The mode has no gate of its own:
// the golden comparison pins every success rate.
func runFaults(w io.Writer, seed int64) (any, error) {
	profile := netsim.WANWiFi()
	rep := &faultsReport{Seed: seed, Profile: profile.Name}
	plans := append([]faults.Plan{faults.Healthy()}, faults.StandardPlans(seed)...)
	// Every (plan, retry-mode) run is an independent simulation — its own
	// engine and injector — so the whole sweep fans out on the experiment
	// worker pool: cell 2i is plan i single-attempt, cell 2i+1 with
	// retries. Results merge back in plan order, so the report and the
	// printed summary are identical to a sequential sweep.
	results := make([]*experiments.FaultRunResult, 2*len(plans))
	err := experiments.RunCells(len(results), func(i int) error {
		plan, retry := plans[i/2], i%2 == 1
		cfg := experiments.DefaultRun(core.KindRattrap, profile, workload.NameChess, seed)
		cfg.RequestsPerDevice = 6
		// Mix in a file-carrying workload so fs.write sites are exercised.
		cfg.Apps = []string{workload.NameChess, workload.NameOCR}
		r, err := experiments.RunFaults(cfg, plan, retry)
		if err != nil {
			mode := "single attempt"
			if retry {
				mode = "retries"
			}
			return fmt.Errorf("plan %s (%s): %w", plan.Name, mode, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, plan := range plans {
		bare, robust := results[2*i], results[2*i+1]
		rep.Plans = append(rep.Plans, faultPlanReport{
			Plan:           plan.Name,
			InjectedFaults: robust.Injected,
			FaultStats:     robust.FaultStats,
			SingleAttempt:  modeReport(bare),
			WithRetries:    modeReport(robust),
		})
		fmt.Fprintf(w, "%-16s  faults=%-3d  single: %5.1f%% ok  |  retries: %5.1f%% ok in %d attempts, p99 %v\n",
			plan.Name, robust.Injected,
			100*bare.SuccessRate, 100*robust.SuccessRate, robust.Attempts, robust.P99.Round(time.Millisecond))
	}

	return rep, nil
}
