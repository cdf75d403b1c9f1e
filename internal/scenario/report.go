package scenario

import (
	"fmt"
	"sort"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/metrics"
	"rattrap/internal/sim"
)

// Report is the machine-readable outcome of one scenario run
// (BENCH_scenario.json). Every field is a virtual-time quantity, so the
// report is byte-identical across runs at one seed.
type Report struct {
	Scenario    string            `json:"scenario"`
	Description string            `json:"description,omitempty"`
	Seed        int64             `json:"seed"`
	Shards      int               `json:"shards"`
	VirtualSecs float64           `json:"virtual_secs"`
	Totals      Stats             `json:"totals"`
	Cohorts     []CohortReport    `json:"cohorts"`
	Pool        PoolReport        `json:"pool"`
	Resharding  *ReshardReport    `json:"resharding,omitempty"`
	Events      []EventReport     `json:"events,omitempty"`
	Assertions  []AssertionReport `json:"assertions"`
	Pass        bool              `json:"pass"`
}

// ReshardReport is the membership and migration accounting for runs that
// resharded or replicated. It is omitted entirely for static 1-replica
// runs, keeping their reports byte-identical to the pre-resharding era.
type ReshardReport struct {
	Epoch          uint64 `json:"epoch"`
	Replicas       int    `json:"replicas"`
	LiveShards     int    `json:"live_shards"`
	TotalShards    int    `json:"total_shards"`
	Joins          int    `json:"joins"`
	Removals       int    `json:"removals"`
	Failures       int    `json:"failures"`
	EntriesMoved   int    `json:"entries_moved"`
	DeltaBytes     int64  `json:"delta_bytes"`
	FullBytes      int64  `json:"full_bytes"`
	EntriesDropped int    `json:"entries_dropped"`
	ReplicaCopies  int    `json:"replica_copies"`
	ReplicaDelta   int64  `json:"replica_delta_bytes"`
	Repaired       int    `json:"repaired"`
}

// Stats aggregates request outcomes. Latency percentiles are over
// successful requests, measured arrival→completion including retries.
type Stats struct {
	Arrivals    int     `json:"arrivals"`
	Succeeded   int     `json:"succeeded"`
	Failed      int     `json:"failed"`
	Overloads   int     `json:"overloads"`
	Retries     int     `json:"retries"`
	SuccessRate float64 `json:"success_rate"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
}

// CohortReport is one cohort's slice of the totals.
type CohortReport struct {
	Cohort  string `json:"cohort"`
	Network string `json:"network"` // profile at end of run
	Stats   Stats  `json:"stats"`
}

// ShardPool is one shard's end-of-run lifecycle census. CensusOK: after the
// engine drains (and Run's audit matched the census to the slot list), every
// live slot is idle and nothing is stranded active, booting, draining, queued.
type ShardPool struct {
	Shard    int  `json:"shard"`
	Runtimes int  `json:"runtimes"`
	Idle     int  `json:"idle"`
	Active   int  `json:"active"`
	Booting  int  `json:"booting"`
	Draining int  `json:"draining"`
	QueueLen int  `json:"queue_len"`
	CensusOK bool `json:"census_ok"`
}

// PoolReport is the cluster-wide pool and chaos accounting.
type PoolReport struct {
	Shards        []ShardPool `json:"shards"`
	TotalRuntimes int         `json:"total_runtimes"`
	// AvgRuntimes is the cluster's pool size averaged over the run's
	// virtual time; PeakRuntimes is the largest pool one shard held.
	AvgRuntimes      float64 `json:"avg_runtimes"`
	PeakRuntimes     int     `json:"peak_runtimes"`
	Cordoned         int     `json:"cordoned"`
	BootFailures     int     `json:"boot_failures"`
	ExecFailures     int     `json:"exec_failures"`
	TeardownFailures int     `json:"teardown_failures"`
	WarehouseEntries int     `json:"warehouse_entries"`
	WarehouseHits    int     `json:"warehouse_hits"`
	WarehouseMisses  int     `json:"warehouse_misses"`
	InjectedFaults   int     `json:"injected_faults"`
	// FaultStats breaks InjectedFaults down by "site:kind", across every
	// plan the timeline activated.
	FaultStats map[string]int `json:"fault_stats,omitempty"`
}

// EventReport records one applied timeline event.
type EventReport struct {
	AtMs   float64 `json:"at_ms"`
	Action string  `json:"action"`
	Detail string  `json:"detail,omitempty"`
}

// AssertionReport is one assertion's verdict.
type AssertionReport struct {
	Type   string `json:"type"`
	Cohort string `json:"cohort,omitempty"`
	Want   string `json:"want"`
	Got    string `json:"got"`
	Pass   bool   `json:"pass"`
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stats reduces a latency sample + counters to a Stats block.
func buildStats(arrivals, succeeded, failed, overloads, retries int, lats []float64) Stats {
	s := Stats{
		Arrivals:  arrivals,
		Succeeded: succeeded,
		Failed:    failed,
		Overloads: overloads,
		Retries:   retries,
	}
	if arrivals > 0 {
		s.SuccessRate = float64(succeeded) / float64(arrivals)
	}
	if len(lats) > 0 {
		sorted := append([]float64(nil), lats...)
		sort.Float64s(sorted)
		s.P50Ms = metrics.Percentile(sorted, 50) * 1000
		s.P99Ms = metrics.Percentile(sorted, 99) * 1000
		s.MaxMs = sorted[len(sorted)-1] * 1000
	}
	return s
}

// report builds the end-of-run Report and evaluates the assertions.
func (r *runner) report() *Report {
	rep := &Report{
		Scenario:    r.scn.Name,
		Description: r.scn.Description,
		Seed:        r.scn.Seed,
		Shards:      r.scn.Shards,
		VirtualSecs: r.e.Now().Seconds(),
		Events:      r.events,
	}

	var allLats []float64
	var tA, tS, tF, tO, tR int
	for _, cs := range r.cohorts {
		rep.Cohorts = append(rep.Cohorts, CohortReport{
			Cohort:  cs.spec.Name,
			Network: cs.profile.Name,
			Stats:   buildStats(cs.arrivals, cs.succeeded, cs.failed, cs.overloads, cs.retries, cs.latencies),
		})
		tA += cs.arrivals
		tS += cs.succeeded
		tF += cs.failed
		tO += cs.overloads
		tR += cs.retries
		allLats = append(allLats, cs.latencies...)
	}
	rep.Totals = buildStats(tA, tS, tF, tO, tR, allLats)

	pool := PoolReport{}
	var runtimeSecs float64
	for i := 0; i < r.cl.Shards(); i++ {
		pl := r.cl.Shard(i)
		db := pl.DB()
		sp := ShardPool{
			Shard:    i,
			Runtimes: pl.RuntimeCount(),
			Idle:     db.StateCount(core.LifecycleIdle),
			Active:   db.StateCount(core.LifecycleActive),
			Booting:  db.StateCount(core.LifecycleBooting),
			Draining: db.StateCount(core.LifecycleDraining),
			QueueLen: pl.QueueLength(),
		}
		sp.CensusOK = sp.Active == 0 && sp.Booting == 0 && sp.Draining == 0 &&
			sp.QueueLen == 0 && sp.Idle == sp.Runtimes
		pool.Shards = append(pool.Shards, sp)
		pool.TotalRuntimes += sp.Runtimes
		secs, peak := pl.PoolUsage()
		runtimeSecs += secs
		pool.PeakRuntimes = max(pool.PeakRuntimes, peak)
		pool.Cordoned += pl.Cordoned()
		pool.BootFailures += pl.FailureCount(core.FailBoot)
		pool.ExecFailures += pl.FailureCount(core.FailExec)
		pool.TeardownFailures += pl.FailureCount(core.FailTeardown)
		if wh := pl.Warehouse(); wh != nil {
			e, h, m := wh.Stats()
			pool.WarehouseEntries += e
			pool.WarehouseHits += h
			pool.WarehouseMisses += m
		}
	}
	if rep.VirtualSecs > 0 {
		pool.AvgRuntimes = runtimeSecs / rep.VirtualSecs
	}
	r.retireInjector() // the run is over: bank the active plan with the retired ones
	pool.FaultStats = r.retired
	for _, n := range r.retired {
		pool.InjectedFaults += n
	}
	rep.Pool = pool

	if mem := r.cl.Membership(); r.cl.Epoch() > 0 || mem.Replicas() > 1 {
		ms := r.cl.MigrationStats()
		rep.Resharding = &ReshardReport{
			Epoch:          r.cl.Epoch(),
			Replicas:       mem.Replicas(),
			LiveShards:     mem.LiveCount(),
			TotalShards:    mem.Len(),
			Joins:          ms.Joins,
			Removals:       ms.Removals,
			Failures:       ms.Failures,
			EntriesMoved:   ms.EntriesMoved,
			DeltaBytes:     int64(ms.DeltaBytes),
			FullBytes:      int64(ms.FullBytes),
			EntriesDropped: ms.EntriesDropped,
			ReplicaCopies:  ms.ReplicaCopies,
			ReplicaDelta:   int64(ms.ReplicaDelta),
			Repaired:       ms.Repaired,
		}
	}

	rep.Pass = true
	for _, a := range r.scn.Assertions {
		ar := r.evaluate(a, rep)
		rep.Assertions = append(rep.Assertions, ar)
		if !ar.Pass {
			rep.Pass = false
		}
	}
	return rep
}

// cohortStats picks the assertion's scope: one cohort or the whole fleet.
func (rep *Report) cohortStats(idx int) (string, Stats) {
	if idx >= 0 && idx < len(rep.Cohorts) {
		return rep.Cohorts[idx].Cohort, rep.Cohorts[idx].Stats
	}
	return "", rep.Totals
}

// evaluate scores one assertion against the built report: census and
// pool-floor in their own words, every other type by its bound's shape.
func (r *runner) evaluate(a AssertionSpec, rep *Report) AssertionReport {
	name, st := rep.cohortStats(a.Cohort)
	ar := AssertionReport{Type: string(a.Kind), Cohort: name}
	switch a.Kind {
	case AssertCensus:
		ar.Want = "census == slots on every shard; nothing active/booting/draining/queued"
		ar.Got, ar.Pass = "ok", true
		for _, sp := range rep.Pool.Shards {
			if !sp.CensusOK {
				ar.Got = fmt.Sprintf("shard %d: runtimes=%d idle=%d active=%d booting=%d draining=%d queue=%d",
					sp.Shard, sp.Runtimes, sp.Idle, sp.Active, sp.Booting, sp.Draining, sp.QueueLen)
				ar.Pass = false
				break
			}
		}
		return ar
	case AssertPoolFloor:
		// A shard that failed or left the ring has no pool to keep.
		min, seen := 0, false
		for _, sp := range rep.Pool.Shards {
			if r.cl.Membership().Routable(sp.Shard) && (!seen || sp.Runtimes < min) {
				min, seen = sp.Runtimes, true
			}
		}
		ar.Want = fmt.Sprintf("every shard >= %d runtimes", int(a.Min))
		ar.Got = fmt.Sprintf("min shard pool %d", min)
		ar.Pass = float64(min) >= a.Min
		return ar
	}
	def := assertionDefs[a.Kind]
	v, n := def.measure(r, rep, a, st)
	switch def.shape {
	case shapeRate:
		ar.Want = fmt.Sprintf(">= %.4f", a.Min)
		if def.after {
			ar.Want += fmt.Sprintf(" after %v", a.After)
		}
		ar.Got = fmt.Sprintf("%.4f", v)
		ar.Pass = v >= a.Min
	case shapeLatency:
		ar.Want = fmt.Sprintf("<= %.1fms", durMs(a.MaxDur))
		ar.Got = fmt.Sprintf("%.1fms", v)
		ar.Pass = v <= durMs(a.MaxDur)
	case shapeCount:
		switch {
		case a.HasMin && a.HasMax:
			ar.Want = fmt.Sprintf("in [%d, %d]", int(a.Min), int(a.Max))
		case a.HasMin:
			ar.Want = fmt.Sprintf(">= %d", int(a.Min))
		default:
			ar.Want = fmt.Sprintf("<= %d", int(a.Max))
		}
		ar.Got = fmt.Sprintf("%d", int(v))
		ar.Pass = (!a.HasMin || v >= a.Min) && (!a.HasMax || v <= a.Max)
	}
	if def.sample != "" {
		if n == 0 {
			ar.Got, ar.Pass = def.none, false
		} else {
			ar.Got += fmt.Sprintf(" over %d %s", n, def.sample)
		}
	}
	return ar
}

// warehouseHitRate is hits / (hits+misses) across every shard.
func warehouseHitRate(_ *runner, rep *Report, _ AssertionSpec, _ Stats) (float64, int) {
	total := rep.Pool.WarehouseHits + rep.Pool.WarehouseMisses
	if total == 0 {
		return 0, 0
	}
	return float64(rep.Pool.WarehouseHits) / float64(total), 0
}

// successAfter is the success rate over the requests arriving at or after
// a.After, and their count.
func (r *runner) successAfter(_ *Report, a AssertionSpec, _ Stats) (float64, int) {
	for _, c := range r.afters {
		if c.at == sim.Time(a.After) && c.arrivals > 0 {
			return float64(c.succeeded) / float64(c.arrivals), c.arrivals
		}
	}
	return 0, 0
}

// bootPercentile measures the pct-th percentile of every shard's boot
// durations, in ms, and the number of boots.
func bootPercentile(pct float64) measureFunc {
	return func(r *runner, _ *Report, _ AssertionSpec, _ Stats) (float64, int) {
		var boots []float64
		for i := 0; i < r.cl.Shards(); i++ {
			for _, d := range r.cl.Shard(i).BootDurations() {
				boots = append(boots, d.Seconds())
			}
		}
		if len(boots) == 0 {
			return 0, 0
		}
		sort.Float64s(boots)
		return metrics.Percentile(boots, pct) * 1000, len(boots)
	}
}
