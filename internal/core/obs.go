package core

import (
	"rattrap/internal/metrics"
	"rattrap/internal/obs"
)

// platformMetrics is the platform's pre-resolved instrument set. Every
// instrument is looked up once, at SetObs time, so the request hot path
// never touches the registry's maps — it dereferences cached pointers or,
// when observability is off (pl.om == nil), skips with one nil check.
type platformMetrics struct {
	reg *obs.Registry

	whHits      *obs.Counter // warehouse cache hits (code transfer skipped)
	whMisses    *obs.Counter // warehouse misses (device must push code)
	whCoalesced *obs.Counter // requests that waited on another's in-flight push

	boots           *obs.Counter // runtime boots (request path and pre-warm)
	tmplClones      *obs.Counter // boots satisfied by cloning the template
	bootFails       *obs.Counter // boots that failed (incl. injected faults)
	affinityHits    *obs.Counter // dispatches served by the AID-affinity index
	queued          *obs.Counter // requests that waited in the FIFO ring
	overloadRejects *obs.Counter // bounded-admission rejections
	executes        *obs.Counter // completed workload executions

	poolSize *obs.Gauge // current runtime pool size
	queueLen *obs.Gauge // current dispatcher wait-ring depth

	// Elastic-pool control loop (autoscaler.go) and health remediation
	// (failuretracker.go) instruments.
	asTicks     *obs.Counter                  // control ticks executed
	asBoots     *obs.Counter                  // loop-initiated boots that completed
	asStops     *obs.Counter                  // shrink stops that completed
	asLimit     *obs.Gauge                    // current elastic boot ceiling
	asQueueEWMA *obs.Gauge                    // smoothed wait-ring depth ×1000
	cordons     *obs.Counter                  // runtimes cordoned for repeated failures
	healthFails [numFailureKinds]*obs.Counter // failures by kind (boot/exec/teardown)

	// lifeEdges counts every lifecycle edge taken, indexed [from][to];
	// only legal edges are resolved (illegal ones panic in Transition
	// before reaching the hook). lifeStates gauges the live-runtime census
	// per state, refreshed from the ContainerDB on every edge.
	lifeEdges  [numLifecycleStates][numLifecycleStates]*obs.Counter
	lifeStates [numLifecycleStates]*obs.Gauge

	queueWait  *metrics.ShardedHistogram // virtual time parked in the wait ring
	bootTime   *metrics.ShardedHistogram // virtual boot duration
	tmplClone  *metrics.ShardedHistogram // virtual boot duration, template clones only
	codeStage  *metrics.ShardedHistogram // virtual code staging (push path)
	chunkStage *metrics.ShardedHistogram // virtual chunk staging (delta push path)
	whLoad     *metrics.ShardedHistogram // virtual warehouse-sourced code load
	runTime    *metrics.ShardedHistogram // virtual pure workload execution
}

// SetObs points the platform at an observability registry. All dispatcher,
// warehouse and runtime instruments are created (or re-resolved) in reg;
// a nil reg disables recording entirely. Durations recorded here are
// virtual time — the engine's clock, never the wall clock — so they are
// bit-deterministic per seed in simulations and correctly paced in the
// realtime server.
func (pl *Platform) SetObs(reg *obs.Registry) { pl.SetObsPrefixed(reg, "") }

// SetObsPrefixed is SetObs with every instrument name prefixed — the
// cluster gateway labels each shard's instruments "shardN." so one shared
// registry scrape separates the shards.
func (pl *Platform) SetObsPrefixed(reg *obs.Registry, prefix string) {
	if pl.warehouse != nil {
		pl.warehouse.setObs(reg, prefix)
	}
	if reg == nil {
		pl.om = nil
		pl.db.SetLifecycleHooks(nil, nil)
		return
	}
	om := &platformMetrics{
		reg:             reg,
		whHits:          reg.Counter(prefix + "warehouse.hits"),
		whMisses:        reg.Counter(prefix + "warehouse.misses"),
		whCoalesced:     reg.Counter(prefix + "warehouse.coalesced_pushes"),
		boots:           reg.Counter(prefix + "dispatch.boots"),
		tmplClones:      reg.Counter(prefix + "dispatch.template_clones"),
		bootFails:       reg.Counter(prefix + "dispatch.boot_failures"),
		affinityHits:    reg.Counter(prefix + "dispatch.affinity_hits"),
		queued:          reg.Counter(prefix + "dispatch.queued"),
		overloadRejects: reg.Counter(prefix + "dispatch.overload_rejects"),
		executes:        reg.Counter(prefix + "core.executes"),
		poolSize:        reg.Gauge(prefix + "core.pool_size"),
		queueLen:        reg.Gauge(prefix + "core.queue_len"),
		asTicks:         reg.Counter(prefix + "autoscale.ticks"),
		asBoots:         reg.Counter(prefix + "autoscale.boots"),
		asStops:         reg.Counter(prefix + "autoscale.stops"),
		asLimit:         reg.Gauge(prefix + "autoscale.limit"),
		asQueueEWMA:     reg.Gauge(prefix + "autoscale.queue_ewma_x1000"),
		cordons:         reg.Counter(prefix + "health.cordons"),
		queueWait:       reg.Histogram(prefix + "stage." + obs.StageQueueWait),
		bootTime:        reg.Histogram(prefix + "stage." + obs.StageBoot),
		tmplClone:       reg.Histogram(prefix + "stage." + obs.StageTemplateClone),
		codeStage:       reg.Histogram(prefix + "stage." + obs.StageCodeStage),
		chunkStage:      reg.Histogram(prefix + "stage." + obs.StageChunkStage),
		whLoad:          reg.Histogram(prefix + "stage." + obs.StageWarehouseLoad),
		runTime:         reg.Histogram(prefix + "stage." + obs.StageRun),
	}
	for k := FailureKind(0); k < numFailureKinds; k++ {
		om.healthFails[k] = reg.Counter(prefix + "health.fail." + k.String())
	}
	for from, tos := range lifecycleEdges {
		for _, to := range tos {
			om.lifeEdges[from][to] = reg.Counter(prefix + "lifecycle.edge." + from.String() + "_" + to.String())
		}
	}
	for _, s := range LifecycleStates() {
		om.lifeStates[s] = reg.Gauge(prefix + "lifecycle.state." + s.String())
	}
	pl.om = om
	pl.db.SetLifecycleHooks(pl.noteLifecycleEdge, pl.noteLifecycleGone)
}

// noteLifecycleEdge is the ContainerDB transition hook: count the edge and
// refresh the census gauges of the two states it touched.
func (pl *Platform) noteLifecycleEdge(from, to Lifecycle) {
	om := pl.om
	if om == nil {
		return
	}
	if c := om.lifeEdges[from][to]; c != nil {
		c.Inc()
	}
	om.lifeStates[from].Set(int64(pl.db.StateCount(from)))
	om.lifeStates[to].Set(int64(pl.db.StateCount(to)))
}

// noteLifecycleGone is the ContainerDB removal hook: a record left the DB
// in its final state, so that state's census gauge shrinks.
func (pl *Platform) noteLifecycleGone(last Lifecycle) {
	if pl.om == nil {
		return
	}
	pl.om.lifeStates[last].Set(int64(pl.db.StateCount(last)))
}

// Obs returns the registry installed with SetObs, nil when disabled.
func (pl *Platform) Obs() *obs.Registry {
	if pl.om == nil {
		return nil
	}
	return pl.om.reg
}
