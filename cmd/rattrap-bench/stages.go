package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/experiments"
	"rattrap/internal/netsim"
	"rattrap/internal/obs"
	"rattrap/internal/workload"
)

// The stages mode is the per-stage latency breakdown: the paper's standard
// run with request-scoped spans enabled, aggregated per stage. All
// durations are virtual time. Its gate checks the span model: per request,
// the sum of the four top-level stages must equal the end-to-end response
// time (tolerance 1%; in fault-free runs the match is exact).

type stageAgg struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MeanNs  int64 `json:"mean_ns"`
	MaxNs   int64 `json:"max_ns"`
}

type stageReport struct {
	Workload string              `json:"workload"`
	Platform string              `json:"platform"`
	Seed     int64               `json:"seed"`
	Requests int                 `json:"requests"`
	Profile  string              `json:"profile"`
	Stages   map[string]stageAgg `json:"stages"`
	// Reconciliation: per-request top-level stage sums vs end-to-end
	// response times, summed over the run.
	EndToEndTotalNs int64   `json:"end_to_end_total_ns"`
	StageSumTotalNs int64   `json:"stage_sum_total_ns"`
	MaxReconcileErr float64 `json:"max_reconcile_err_pct"`
	// Platform counters for the same run (warehouse, dispatcher, core).
	Counters map[string]int64 `json:"counters"`
}

// runStages runs one spans-enabled experiment and reduces it to the report.
func runStages(w io.Writer, seed int64) (any, error) {
	reg := obs.NewRegistry()
	cfg := experiments.DefaultRun(core.KindRattrap, netsim.LANWiFi(), workload.NameLinpack, seed)
	cfg.Spans = true
	cfg.Obs = reg
	res, err := experiments.Run(cfg)
	if err != nil {
		return nil, err
	}

	rep := &stageReport{
		Workload: workload.NameLinpack,
		Platform: core.KindRattrap.String(),
		Seed:     seed,
		Profile:  cfg.Profile.Name,
		Stages:   map[string]stageAgg{},
		Counters: reg.Snapshot().Counters,
	}
	for _, rec := range res.Records {
		if !rec.Offloaded || rec.Err != "" || rec.Span == nil {
			continue
		}
		rep.Requests++
		for _, sr := range rec.Span.Stages() {
			a := rep.Stages[sr.Stage]
			a.Count++
			a.TotalNs += sr.Dur.Nanoseconds()
			if ns := sr.Dur.Nanoseconds(); ns > a.MaxNs {
				a.MaxNs = ns
			}
			rep.Stages[sr.Stage] = a
		}
		e2e := (rec.End - rec.Start).Duration()
		top := rec.Span.TopLevelTotal()
		rep.EndToEndTotalNs += e2e.Nanoseconds()
		rep.StageSumTotalNs += top.Nanoseconds()
		if e2e > 0 {
			errPct := math.Abs(float64(top-e2e)) / float64(e2e) * 100
			if errPct > rep.MaxReconcileErr {
				rep.MaxReconcileErr = errPct
			}
		}
	}
	if rep.Requests == 0 {
		return nil, fmt.Errorf("no successful offloaded requests with spans")
	}
	for name, a := range rep.Stages {
		a.MeanNs = a.TotalNs / int64(a.Count)
		rep.Stages[name] = a
	}

	fmt.Fprintf(w, "per-stage breakdown over %d requests:", rep.Requests)
	for _, n := range []string{obs.StageConnect, obs.StageTransfer, obs.StagePrepare, obs.StageExecute} {
		if a, ok := rep.Stages[n]; ok {
			fmt.Fprintf(w, " %s=%v", n, time.Duration(a.MeanNs))
		}
	}
	fmt.Fprintf(w, " (max reconcile error %.4f%%)\n", rep.MaxReconcileErr)

	if rep.MaxReconcileErr > 1 {
		return rep, fmt.Errorf("stage sums do not reconcile with end-to-end latency: max error %.4f%% > 1%%", rep.MaxReconcileErr)
	}
	return rep, nil
}
