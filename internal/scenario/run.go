package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"rattrap/internal/cluster"
	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/faults"
	"rattrap/internal/host"
	"rattrap/internal/netsim"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// cohortState is one cohort's live state during a run. profile and mult
// are the event-mutable knobs: set-network flips profile (new arrivals
// pick it up, in-flight requests keep the link they opened), load-spike
// raises mult (the generator reads it at every gap draw).
type cohortState struct {
	spec    CohortSpec
	idx     int
	gen     *arrivalGen
	taskRng *rand.Rand
	profile netsim.Profile
	mult    float64
	apps    []workload.App

	arrivals  int
	succeeded int
	failed    int
	overloads int
	retries   int
	latencies []float64 // seconds, successful requests only
}

// runner drives one scenario: a cluster plus per-cohort generators on a
// single engine, with the event timeline scheduled as engine callbacks.
type runner struct {
	e   *sim.Engine
	scn *Scenario
	cl  *cluster.Cluster

	// inj is the active fault injector, nil when none. The shard and link
	// hooks are closures over the runner, so activating a plan mid-run
	// immediately affects in-flight links and future boots/teardowns.
	inj     *faults.Injector
	retired map[string]int // "site:kind" counts of plans since replaced or cleared

	cohorts []*cohortState
	events  []EventReport

	// afters holds one counter per success-rate-after assertion: requests
	// arriving at or past the threshold are scored separately, so a
	// mid-run membership event can be gated on post-event health alone.
	afters []*afterCounter
}

type afterCounter struct {
	at        sim.Time
	arrivals  int
	succeeded int
}

// Run executes a validated scenario and returns its report. The run is a
// pure function of the scenario file: all randomness descends from
// Scenario.Seed, the engine serializes every process, and the report
// contains only virtual-time quantities — so the same file produces a
// byte-identical report on every run, on every machine.
func Run(scn *Scenario) (*Report, error) {
	r := &runner{e: sim.NewEngine(scn.Seed), scn: scn}

	cfg := core.DefaultConfig(scn.Platform.Kind)
	cfg.MaxRuntimes = scn.Platform.MaxRuntimes
	cfg.MaxQueueDepth = scn.Platform.MaxQueueDepth
	cfg.IdleTimeout = scn.Platform.IdleTimeout
	cfg.TemplateBoot = scn.Platform.TemplateBoot
	if scn.Platform.Autoscale {
		cfg.MinRuntimes = scn.Platform.MinRuntimes
		cfg.Autoscale = core.AutoscaleConfig{Enabled: true, Interval: scn.Platform.Interval}
	}
	replicas := scn.Platform.Replicas
	if replicas < 1 {
		replicas = 1
	}
	r.cl = cluster.NewReplicated(r.e, cfg, scn.Shards, replicas)
	for i := 0; i < r.cl.Shards(); i++ {
		r.installFaultHooks(r.cl.Shard(i))
	}
	// Shards commissioned mid-run by add-shard events get the same fault
	// wiring as founding shards.
	r.cl.OnShardAdded(func(id int, pl *core.Platform) { r.installFaultHooks(pl) })

	for _, a := range scn.Assertions {
		if a.Kind == AssertSuccessRateAfter {
			r.afters = append(r.afters, &afterCounter{at: sim.Time(a.After)})
		}
	}

	for i, c := range scn.Fleet {
		cs := &cohortState{
			spec:    c,
			idx:     i,
			gen:     newArrivalGen(c, scn.Seed, i),
			taskRng: rand.New(rand.NewSource(cohortSeed(scn.Seed, i+MaxCohorts))),
			profile: c.Network,
			mult:    1,
		}
		for _, name := range c.Apps {
			app, err := workload.ByName(name)
			if err != nil {
				return nil, err // unreachable: Decode validated the names
			}
			cs.apps = append(cs.apps, app)
		}
		r.cohorts = append(r.cohorts, cs)
		r.spawnGenerator(cs)
	}

	for _, ev := range scn.Events {
		ev := ev
		r.e.At(sim.Time(ev.At), func() { r.applyEvent(ev) })
	}

	r.e.Run()
	if n := r.e.LiveProcs(); n != 0 {
		return nil, fmt.Errorf("scenario %q: %d processes still live after the engine drained", scn.Name, n)
	}
	return r.report(), nil
}

// fault consults the runner's *current* injector at one operation; every
// fault point of every shard and link calls it, so fault-plan events swap
// plans without re-wiring anything.
func (r *runner) fault(p *sim.Proc, site, target string, size host.Bytes) error {
	if r.inj == nil {
		return nil
	}
	return r.inj.Apply(p, site, target, size)
}

// installFaultHooks wires one shard's boot, teardown, exec and
// offloading-I/O write fault points to the runner.
func (r *runner) installFaultHooks(pl *core.Platform) {
	pl.SetBootFault(func(p *sim.Proc, id string) error { return r.fault(p, faults.SiteBoot, id, 0) })
	pl.SetTeardownFault(func(p *sim.Proc, id string) error { return r.fault(p, faults.SiteTeardown, id, 0) })
	pl.SetExecFault(func(p *sim.Proc, id, aid string) error { return r.fault(p, faults.SiteExec, id, 0) })
	if m := pl.OffloadIO(); m != nil {
		m.SetFault(func(p *sim.Proc, path string, size host.Bytes) error {
			return r.fault(p, faults.SiteFSWrite, path, size)
		})
	}
}

// retireInjector banks the active plan's fault counts before the plan is
// replaced or cleared.
func (r *runner) retireInjector() {
	if r.inj == nil {
		return
	}
	if r.retired == nil {
		r.retired = make(map[string]int)
	}
	for k, n := range r.inj.Stats() {
		r.retired[k] += n
	}
	r.inj = nil
}

func (r *runner) applyEvent(ev EventSpec) {
	detail := ""
	switch ev.Kind {
	case EvSetNetwork:
		cs := r.cohorts[ev.Cohort]
		cs.profile = ev.Net
		detail = fmt.Sprintf("%s -> %s", cs.spec.Name, ev.Net.Name)
	case EvLoadSpike:
		cs := r.cohorts[ev.Cohort]
		cs.mult = ev.Factor
		r.e.After(ev.Dur, func() { cs.mult = 1 })
		detail = fmt.Sprintf("%s x%g for %v", cs.spec.Name, ev.Factor, ev.Dur)
	case EvFaultPlan:
		r.retireInjector()
		plan, _ := planByName(ev.Plan, r.scn.Seed)
		r.inj = faults.New(plan)
		detail = ev.Plan
	case EvClearFaults:
		r.retireInjector()
	case EvKillShard:
		// Cordon every runtime on the shard: in-flight work finishes, the
		// runtimes drain, and (under autoscale) the pool rebuilds cold.
		pl := r.cl.Shard(ev.Shard)
		n := 0
		for _, ri := range pl.DB().List() {
			if pl.CordonRuntime(ri.CID) {
				n++
			}
		}
		detail = fmt.Sprintf("shard %d, %d runtimes cordoned", ev.Shard, n)
	case EvAddShard:
		id := r.cl.AddShard()
		detail = fmt.Sprintf("shard %d joining (epoch %d)", id, r.cl.Epoch())
	case EvRemoveShard:
		if r.cl.RemoveShard(ev.Shard) {
			detail = fmt.Sprintf("shard %d draining", ev.Shard)
		} else {
			detail = fmt.Sprintf("shard %d not removable", ev.Shard)
		}
	case EvFailShard:
		if r.cl.FailShard(ev.Shard) {
			detail = fmt.Sprintf("shard %d down (epoch %d)", ev.Shard, r.cl.Epoch())
		} else {
			detail = fmt.Sprintf("shard %d already down", ev.Shard)
		}
	case EvSetFloor:
		for i := 0; i < r.cl.Shards(); i++ {
			r.cl.Shard(i).SetPoolBounds(ev.Floor, r.scn.Platform.MaxRuntimes)
		}
		detail = fmt.Sprintf("min_runtimes=%d", ev.Floor)
	}
	r.events = append(r.events, EventReport{
		AtMs:   durMs(ev.At),
		Action: ev.Kind.String(),
		Detail: detail,
	})
}

// spawnGenerator starts a cohort's arrival process: one proc that sleeps
// gap-to-gap and spawns a request proc per arrival. The fleet's size
// shows up only as in-flight request procs, never as per-device state.
func (r *runner) spawnGenerator(cs *cohortState) {
	r.e.Spawn("gen:"+cs.spec.Name, func(p *sim.Proc) {
		if cs.spec.Start > 0 {
			p.Sleep(cs.spec.Start)
		}
		for k := 0; ; k++ {
			gap, ok := cs.gen.next(cs.mult)
			if !ok {
				return
			}
			if gap > 0 {
				p.Sleep(gap)
			}
			r.spawnRequest(cs, k)
		}
	})
}

// spawnRequest runs one arrival's offload exchange as its own proc, through
// a bare device.Client on a fresh link.
func (r *runner) spawnRequest(cs *cohortState, k int) {
	arrived := r.e.Now()
	prof := cs.profile
	cs.arrivals++
	r.e.Spawn(cs.spec.Name+".r"+strconv.Itoa(k), func(p *sim.Proc) {
		dev := cs.spec.Name + "-d" + strconv.Itoa(k%cs.spec.Devices)
		link := netsim.NewLink(r.e, prof)
		link.SetFault(func(p *sim.Proc, op string, size host.Bytes) error { return r.fault(p, op, dev, size) })
		app := cs.apps[k%len(cs.apps)]
		// Distinct code sizes make distinct AIDs: variants spread one
		// app's traffic over Variants consistent-hash placements.
		codeSize := app.CodeSize() + host.Bytes(k%cs.spec.Variants)
		seq := k / cs.spec.Devices // unique per device: the idempotency key half
		task := app.NewTask(cs.taskRng, seq)
		if cs.spec.LinpackOrder > 0 && task.App == workload.NameLinpack {
			task.Params = workload.EncodeLinpackParams(r.scn.Seed, cs.spec.LinpackOrder)
		}
		err := r.offload(p, cs, device.Client{ID: dev, Link: link}, task, codeSize)
		if err == nil {
			cs.succeeded++
			cs.latencies = append(cs.latencies, (r.e.Now() - arrived).Duration().Seconds())
		} else {
			cs.failed++
		}
		for _, ac := range r.afters {
			if arrived >= ac.at {
				ac.arrivals++
				if err == nil {
					ac.succeeded++
				}
			}
		}
	})
}

// offload drives one request under the scenario's retry policy. Jitter
// comes from the engine source: the engine serializes procs, so the draw
// order — and hence the schedule — is deterministic.
func (r *runner) offload(p *sim.Proc, cs *cohortState, c device.Client, task workload.Task, codeSize host.Bytes) error {
	for attempt := 1; ; attempt++ {
		_, err := c.Attempt(p, r.cl, task, codeSize, nil)
		if err == nil {
			return nil
		}
		if errors.Is(err, offload.ErrOverloaded) {
			cs.overloads++
		}
		delay, ok := r.scn.Client.Backoff(attempt, err, r.e.Rand())
		if !ok {
			return err
		}
		cs.retries++
		p.Sleep(delay)
	}
}
