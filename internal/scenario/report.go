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

// ShardPool is one shard's end-of-run lifecycle census. CensusOK is the
// PR-7 invariant: after the engine drains, every live slot is idle, the
// census matches the slot list, and nothing is stranded active, booting,
// draining, or queued.
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
			sp.QueueLen == 0 && sp.Idle == sp.Runtimes && db.Count() == sp.Runtimes
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

// evaluate scores one assertion against the built report.
func (r *runner) evaluate(a AssertionSpec, rep *Report) AssertionReport {
	ar := AssertionReport{Type: a.Kind.String()}
	name, st := rep.cohortStats(a.Cohort)
	ar.Cohort = name
	switch a.Kind {
	case AssertSuccessRate:
		ar.Want = fmt.Sprintf(">= %.4f", a.Min)
		ar.Got = fmt.Sprintf("%.4f", st.SuccessRate)
		ar.Pass = st.SuccessRate >= a.Min
	case AssertP50, AssertP99, AssertMaxLatency:
		got := st.P50Ms
		switch a.Kind {
		case AssertP99:
			got = st.P99Ms
		case AssertMaxLatency:
			got = st.MaxMs
		}
		ar.Want = fmt.Sprintf("<= %.1fms", durMs(a.MaxDur))
		ar.Got = fmt.Sprintf("%.1fms", got)
		ar.Pass = got <= durMs(a.MaxDur)
	case AssertCensus:
		ar.Want = "census == slots on every shard; nothing active/booting/draining/queued"
		ok := true
		for _, sp := range rep.Pool.Shards {
			if !sp.CensusOK {
				ok = false
				ar.Got = fmt.Sprintf("shard %d: runtimes=%d idle=%d active=%d booting=%d draining=%d queue=%d",
					sp.Shard, sp.Runtimes, sp.Idle, sp.Active, sp.Booting, sp.Draining, sp.QueueLen)
				break
			}
		}
		if ok {
			ar.Got = "ok"
		}
		ar.Pass = ok
	case AssertPoolFloor:
		min := rep.Pool.Shards[0].Runtimes
		for _, sp := range rep.Pool.Shards[1:] {
			if sp.Runtimes < min {
				min = sp.Runtimes
			}
		}
		ar.Want = fmt.Sprintf("every shard >= %d runtimes", int(a.Min))
		ar.Got = fmt.Sprintf("min shard pool %d", min)
		ar.Pass = float64(min) >= a.Min
	case AssertFinalPool:
		ar.Want = rangeWant(a)
		ar.Got = fmt.Sprintf("%d", rep.Pool.TotalRuntimes)
		ar.Pass = inRange(float64(rep.Pool.TotalRuntimes), a)
	case AssertMinRequests:
		ar.Want = fmt.Sprintf(">= %d", int(a.Min))
		ar.Got = fmt.Sprintf("%d", rep.Totals.Arrivals)
		ar.Pass = float64(rep.Totals.Arrivals) >= a.Min
	case AssertWarehouseHitRate:
		total := rep.Pool.WarehouseHits + rep.Pool.WarehouseMisses
		rate := 0.0
		if total > 0 {
			rate = float64(rep.Pool.WarehouseHits) / float64(total)
		}
		ar.Want = fmt.Sprintf(">= %.4f", a.Min)
		ar.Got = fmt.Sprintf("%.4f", rate)
		ar.Pass = rate >= a.Min
	case AssertOverloads:
		ar.Want = rangeWant(a)
		ar.Got = fmt.Sprintf("%d", rep.Totals.Overloads)
		ar.Pass = inRange(float64(rep.Totals.Overloads), a)
	case AssertLiveShards:
		live := r.cl.Membership().LiveCount()
		ar.Want = rangeWant(a)
		ar.Got = fmt.Sprintf("%d", live)
		ar.Pass = inRange(float64(live), a)
	case AssertSuccessRateAfter:
		ar.Want = fmt.Sprintf(">= %.4f after %v", a.Min, a.After)
		var ac *afterCounter
		for _, c := range r.afters {
			if c.at == sim.Time(a.After) {
				ac = c
				break
			}
		}
		if ac == nil || ac.arrivals == 0 {
			ar.Got = "no arrivals after threshold"
			ar.Pass = false
			break
		}
		rate := float64(ac.succeeded) / float64(ac.arrivals)
		ar.Got = fmt.Sprintf("%.4f over %d requests", rate, ac.arrivals)
		ar.Pass = rate >= a.Min
	case AssertBootP50, AssertBootP99:
		var boots []float64
		for i := 0; i < r.cl.Shards(); i++ {
			for _, d := range r.cl.Shard(i).BootDurations() {
				boots = append(boots, d.Seconds())
			}
		}
		pct := 50.0
		if a.Kind == AssertBootP99 {
			pct = 99
		}
		ar.Want = fmt.Sprintf("<= %.1fms", durMs(a.MaxDur))
		if len(boots) == 0 {
			ar.Got = "no boots"
			ar.Pass = false
			break
		}
		sort.Float64s(boots)
		got := metrics.Percentile(boots, pct) * 1000
		ar.Got = fmt.Sprintf("%.1fms over %d boots", got, len(boots))
		ar.Pass = got <= durMs(a.MaxDur)
	}
	return ar
}

func rangeWant(a AssertionSpec) string {
	switch {
	case a.HasMin && a.HasMax:
		return fmt.Sprintf("in [%d, %d]", int(a.Min), int(a.Max))
	case a.HasMin:
		return fmt.Sprintf(">= %d", int(a.Min))
	default:
		return fmt.Sprintf("<= %d", int(a.Max))
	}
}

func inRange(v float64, a AssertionSpec) bool {
	if a.HasMin && v < a.Min {
		return false
	}
	if a.HasMax && v > a.Max {
		return false
	}
	return true
}
