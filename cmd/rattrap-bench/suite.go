package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"rattrap/internal/experiments"
	"rattrap/internal/faults"
	"rattrap/internal/scenario"
)

// A suite asks one fleet question as scenario runs: a checked-in base
// scenario, named variants that each edit the decoded file, and a gate over
// the variants' reports. Variants edit the platform, the client or the
// timeline, never the fleet, so all of them replay one arrival schedule
// (arrivals are a function of the seed and the fleet only). Before its own
// gate, every suite requires each variant to pass the base file's
// assertions and to end with a clean lifecycle census on every shard.
type suite struct {
	base     string
	variants []variant
	gate     func(runs map[string]*scenario.Report) error
}

type variant struct {
	name string
	edit func(*scenario.Scenario) // nil runs the file as declared
}

// scenarioDir holds the suites' base files: relative to the repository
// root, where `make bench-<mode>` runs (the tests point it at the root).
var scenarioDir = "scenarios"

// suiteReport is BENCH_<mode>.json for every suite mode.
type suiteReport struct {
	Scenario string          `json:"scenario"`
	Seed     int64           `json:"seed"`
	Variants []variantReport `json:"variants"`
}

// variantReport is the slice of one variant's scenario report the gates read.
type variantReport struct {
	Variant          string                  `json:"variant"`
	VirtualSecs      float64                 `json:"virtual_secs"`
	Totals           scenario.Stats          `json:"totals"`
	AvgPool          float64                 `json:"avg_pool"`
	PeakPool         int                     `json:"peak_pool"`
	FinalPool        int                     `json:"final_pool"`
	TeardownFailures int                     `json:"teardown_failures"`
	InjectedFaults   int                     `json:"injected_faults"`
	FaultStats       map[string]int          `json:"fault_stats,omitempty"`
	Resharding       *scenario.ReshardReport `json:"resharding,omitempty"`
	Failed           []string                `json:"failed,omitempty"` // assertions and census
}

func project(name string, r *scenario.Report) variantReport {
	return variantReport{
		Variant:          name,
		VirtualSecs:      r.VirtualSecs,
		Totals:           r.Totals,
		AvgPool:          r.Pool.AvgRuntimes,
		PeakPool:         r.Pool.PeakRuntimes,
		FinalPool:        r.Pool.TotalRuntimes,
		TeardownFailures: r.Pool.TeardownFailures,
		InjectedFaults:   r.Pool.InjectedFaults,
		FaultStats:       r.Pool.FaultStats,
		Resharding:       r.Resharding,
		Failed:           failures(r),
	}
}

// failures lists the checks every variant of every suite must pass: the
// base file's assertions and a clean census on every shard.
func failures(r *scenario.Report) []string {
	var out []string
	for _, a := range r.Assertions {
		if !a.Pass {
			out = append(out, fmt.Sprintf("%s: want %s, got %s", a.Type, a.Want, a.Got))
		}
	}
	for _, sp := range r.Pool.Shards {
		if !sp.CensusOK {
			out = append(out, fmt.Sprintf("census: %+v", sp))
		}
	}
	return out
}

// run is the suite's mode: every variant at seed, projected into one
// report, summarized to w and judged.
func (s suite) run(w io.Writer, seed int64) (any, error) {
	runs, err := s.runAll(seed)
	if err != nil {
		return nil, err
	}
	rep := &suiteReport{Scenario: s.base, Seed: seed}
	for _, v := range s.variants {
		vr := project(v.name, runs[v.name])
		rep.Variants = append(rep.Variants, vr)
		t := vr.Totals
		fmt.Fprintf(w, "%-30s %3d/%-3d ok, %3d retries, p99 %8.1f ms; pool avg %.2f, peak %d, final %d; %d faults\n",
			vr.Variant, t.Succeeded, t.Arrivals, t.Retries, t.P99Ms, vr.AvgPool, vr.PeakPool, vr.FinalPool, vr.InjectedFaults)
		if rs := vr.Resharding; rs != nil {
			fmt.Fprintf(w, "%-30s epoch %d, %d live shards; join moved %d entries, %d/%d delta/full bytes, %d repaired\n",
				"", rs.Epoch, rs.LiveShards, rs.EntriesMoved, rs.DeltaBytes, rs.FullBytes, rs.Repaired)
		}
	}
	return rep, s.judge(runs)
}

// runAll runs every variant at seed on the experiment worker pool: each run
// is its own engine, so the reports are those of a sequential loop.
func (s suite) runAll(seed int64) (map[string]*scenario.Report, error) {
	reports := make([]*scenario.Report, len(s.variants))
	err := experiments.RunCells(len(s.variants), func(i int) error {
		scn, err := scenario.Load(filepath.Join(scenarioDir, s.base))
		if err != nil {
			return err
		}
		scn.Seed = seed
		if s.variants[i].edit != nil {
			s.variants[i].edit(scn)
		}
		if reports[i], err = scenario.Run(scn); err != nil {
			return fmt.Errorf("%s: %w", s.variants[i].name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	runs := make(map[string]*scenario.Report, len(reports))
	for i, r := range reports {
		runs[s.variants[i].name] = r
	}
	return runs, nil
}

// judge is the suite's verdict: the shared variant checks, then its gate.
func (s suite) judge(runs map[string]*scenario.Report) error {
	for _, v := range s.variants {
		if f := failures(runs[v.name]); len(f) > 0 {
			return fmt.Errorf("%s: %s", v.name, f[0])
		}
	}
	return s.gate(runs)
}

// withPlan activates a named fault plan at t=0.
func withPlan(plan string) func(*scenario.Scenario) {
	return func(scn *scenario.Scenario) {
		ev := scenario.EventSpec{Kind: scenario.EvFaultPlan, Plan: plan, Cohort: -1}
		scn.Events = append([]scenario.EventSpec{ev}, scn.Events...)
	}
}

// The autoscale suite races the elastic pool against pre-started fixed
// pools over one bursty schedule (§III-B): the autoscaled p99 must beat
// every fixed pool no larger than its own time-weighted average size k*.
// Its teardown variant fails every other teardown on a floor of 2: the pool
// must settle back at the floor with nothing stuck draining — zero
// permanent capacity loss.
var fixedPools = []int{1, 2, 3, 4, 8}

const teardownFloor = 2

var autoscaleSuite = suite{
	base: "autoscale-bursts.yaml",
	variants: func() []variant {
		vs := []variant{{name: "auto"}}
		for _, k := range fixedPools {
			vs = append(vs, variant{fmt.Sprintf("fixed-%d", k), func(scn *scenario.Scenario) {
				scn.Platform.MinRuntimes, scn.Platform.MaxRuntimes = k, k // the autoscaler prewarms the floor
			}})
		}
		return append(vs, variant{"teardown", func(scn *scenario.Scenario) {
			scn.Platform.MinRuntimes = teardownFloor
			withPlan("teardown-storm")(scn)
		}})
	}(),
	gate: func(runs map[string]*scenario.Report) error {
		auto := runs["auto"]
		kStar := max(1, int(math.Round(auto.Pool.AvgRuntimes)))
		for _, k := range fixedPools {
			fixed := runs[fmt.Sprintf("fixed-%d", k)]
			if k <= kStar && auto.Totals.P99Ms >= fixed.Totals.P99Ms {
				return fmt.Errorf("autoscaled p99 %.0f ms does not beat fixed-%d's %.0f ms (k* = %d)",
					auto.Totals.P99Ms, k, fixed.Totals.P99Ms, kStar)
			}
		}
		td := runs["teardown"]
		if td.Pool.TeardownFailures == 0 {
			return fmt.Errorf("the teardown variant saw no teardown failures; the capacity-loss gate proved nothing")
		}
		if td.Pool.TotalRuntimes != teardownFloor {
			return fmt.Errorf("capacity lost under teardown faults: final pool %d, floor %d", td.Pool.TotalRuntimes, teardownFloor)
		}
		return nil
	},
}

// The reshard suite is reshard-live.yaml — one shard crashes at 8 s, a
// fresh one joins at 12 s — held to its own assertions (every request
// succeeds, every request arriving after 14 s succeeds), a p99 bound, a
// converged membership and a join that moved strictly fewer bytes than the
// entries' full size.
var reshardSuite = suite{
	base: "reshard-live.yaml",
	variants: []variant{{"live", func(scn *scenario.Scenario) {
		scn.Assertions = append(scn.Assertions, scenario.AssertionSpec{
			Kind: scenario.AssertP99, Cohort: -1, MaxDur: 2 * time.Second, HasMax: true,
		})
	}}},
	gate: func(runs map[string]*scenario.Report) error {
		rs := runs["live"].Resharding
		switch {
		case rs == nil || rs.Epoch < 2:
			return fmt.Errorf("membership did not move twice: %+v", rs)
		case rs.EntriesMoved == 0:
			return fmt.Errorf("the join migrated nothing; the delta gate proved nothing")
		case rs.DeltaBytes >= rs.FullBytes:
			return fmt.Errorf("join moved %d delta bytes vs %d full bytes: chunk dedup is not saving transfer", rs.DeltaBytes, rs.FullBytes)
		}
		return nil
	},
}

// The faults suite runs fault-sweep.yaml under the healthy plan and each
// standard fault plan, with one attempt per request and with the file's
// retries. Healthy must not retry; every other plan must inject; retries
// must hold 100 % under every plan; a single attempt must lose requests
// under every plan that fails operations rather than only stalling them.
var (
	sweptPlans = append([]faults.Plan{faults.Healthy()}, faults.StandardPlans(0)...)
	lossyPlans = map[string]bool{"drop-uplink": true, "flaky-connect": true, "stalled-device": true, "flaky-boot": true}
)

var faultsSuite = suite{
	base: "fault-sweep.yaml",
	variants: func() []variant {
		var vs []variant
		for _, p := range sweptPlans {
			vs = append(vs,
				variant{p.Name + "/single-attempt", func(scn *scenario.Scenario) {
					scn.Client.MaxAttempts = 1
					withPlan(p.Name)(scn)
				}},
				variant{p.Name + "/retries", withPlan(p.Name)})
		}
		return vs
	}(),
	gate: func(runs map[string]*scenario.Report) error {
		for _, p := range sweptPlans {
			for _, mode := range []string{"single-attempt", "retries"} {
				if err := faultGate(p.Name, mode, runs[p.Name+"/"+mode]); err != nil {
					return fmt.Errorf("%s/%s: %w", p.Name, mode, err)
				}
			}
		}
		return nil
	},
}

func faultGate(plan, mode string, r *scenario.Report) error {
	switch {
	case plan == "healthy" && (r.Totals.Retries != 0 || r.Totals.SuccessRate != 1):
		return fmt.Errorf("%d retries, %.1f%% success without faults", r.Totals.Retries, 100*r.Totals.SuccessRate)
	case plan != "healthy" && r.Pool.InjectedFaults == 0:
		return fmt.Errorf("no faults injected")
	case mode == "retries" && r.Totals.SuccessRate != 1:
		return fmt.Errorf("retries held only %.1f%%", 100*r.Totals.SuccessRate)
	case mode == "single-attempt" && lossyPlans[plan] && r.Totals.SuccessRate == 1:
		return fmt.Errorf("nothing lost without retries")
	case plan == "stalled-device" && r.Pool.FaultStats["net.download:stall"] == 0:
		return fmt.Errorf("no download stalls fired: %v", r.Pool.FaultStats)
	}
	return nil
}
