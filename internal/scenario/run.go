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
	apps    []workload.App // Linpack pinned to linpack_order when set
	// procName names every request proc of the cohort: it is the same for
	// every arrival, so it is built once.
	procName string
	// codes holds the code blob of each (app, variant) pair, at
	// app*Variants+variant, filled the first time an arrival needs it: a
	// cohort offloads a few thousand blobs at most, and hashing each AID
	// once is what the App Warehouse's "once per app" asks of the device.
	codes []offload.Code
	// served marks, at the same index, the codes some request succeeded
	// for: finish requires their primaries to hold them still.
	served []bool

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
	// hooks call the runner's fault, so activating a plan mid-run
	// immediately affects in-flight links and future boots/teardowns.
	// linkFault is fault bound once, the hook of every arrival's link.
	inj       *faults.Injector
	linkFault netsim.FaultHook
	retired   map[string]int // "site:kind" counts of plans since replaced or cleared

	cohorts []*cohortState
	events  []EventReport

	// afters holds one counter per success-rate-after assertion: requests
	// arriving at or past the threshold are scored separately, so a
	// mid-run membership event can be gated on post-event health alone.
	afters []*afterCounter

	// lostAll is set when a fail-shard took the last Live shard: every copy
	// of the cached code may have gone with it.
	lostAll bool
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
	r, err := newRunner(scn)
	if err != nil {
		return nil, err
	}
	r.e.Run()
	return r.finish()
}

// newRunner builds scn's cluster and cohorts on a fresh engine and
// schedules its timeline, ready for the engine to run.
func newRunner(scn *Scenario) (*runner, error) {
	r := &runner{e: sim.NewEngine(scn.Seed), scn: scn}
	r.linkFault = r.fault

	r.cl = cluster.NewReplicated(r.e, scn.Platform.Config, scn.Shards, scn.Platform.Replicas)
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
			spec:     c,
			idx:      i,
			gen:      newArrivalGen(c, scn.Seed, i),
			taskRng:  rand.New(rand.NewSource(cohortSeed(scn.Seed, i+MaxCohorts))),
			profile:  c.Network,
			mult:     1,
			procName: c.Name + ".request",
			codes:    make([]offload.Code, len(c.Apps)*c.Variants),
			served:   make([]bool, len(c.Apps)*c.Variants),
		}
		for _, name := range c.Apps {
			app, err := workload.ByName(name)
			if err != nil {
				return nil, err // unreachable: Decode validated the names
			}
			if name == workload.NameLinpack && c.LinpackOrder > 0 {
				app = workload.PinnedLinpack(scn.Seed, c.LinpackOrder)
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
	return r, nil
}

// finish checks a run the engine drained and reports it: no proc is left,
// the cluster's audit passes, and every AID a request was served for is
// still held by its primary.
func (r *runner) finish() (*Report, error) {
	if n := r.e.LiveProcs(); n != 0 {
		return nil, fmt.Errorf("scenario %q: %d processes still live after the engine drained", r.scn.Name, n)
	}
	if err := r.cl.Audit(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", r.scn.Name, err)
	}
	if err := r.checkServed(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", r.scn.Name, err)
	}
	return r.report(), nil
}

// checkServed requires the primary of every AID some request was served
// for to hold it, unless the crash model lets the code go: R failed shards
// can take every copy of an entry, and so can a fail-shard that took the
// last Live shard.
func (r *runner) checkServed() error {
	if r.lostAll || r.cl.MigrationStats().Failures >= r.cl.Membership().Replicas() {
		return nil
	}
	for _, cs := range r.cohorts {
		for i, code := range cs.codes {
			if !cs.served[i] {
				continue
			}
			wh := r.cl.Shard(r.cl.Owner(code.AID)).Warehouse()
			if wh == nil {
				return nil // a platform without a warehouse holds no code
			}
			if _, ok := wh.Lookup(code.AID); !ok {
				return fmt.Errorf("%s was served and is held nowhere", code.AID)
			}
		}
	}
	return nil
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
			r.lostAll = r.lostAll || !r.anyLive()
			detail = fmt.Sprintf("shard %d down (epoch %d)", ev.Shard, r.cl.Epoch())
		} else {
			detail = fmt.Sprintf("shard %d already down", ev.Shard)
		}
	case EvSetFloor:
		maxR := r.scn.Platform.MaxRuntimes
		detail = fmt.Sprintf("min_runtimes=%d", ev.Floor)
		if ev.HasMax {
			maxR = ev.MaxRuntimes
			detail += fmt.Sprintf(" max_runtimes=%d", maxR)
		}
		for i := 0; i < r.cl.Shards(); i++ {
			r.cl.Shard(i).SetPoolBounds(ev.Floor, maxR)
		}
	}
	r.events = append(r.events, EventReport{
		AtMs:   durMs(ev.At),
		Action: string(ev.Kind),
		Detail: detail,
	})
}

// anyLive reports whether some shard is still Live.
func (r *runner) anyLive() bool {
	for s := 0; s < r.cl.Shards(); s++ {
		if r.cl.Membership().State(s) == cluster.ShardLive {
			return true
		}
	}
	return false
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
	cs.arrivals++
	a := &arrival{r: r, cs: cs, k: k, arrived: r.e.Now(), link: netsim.MakeLink(r.e, cs.profile)}
	r.e.Start(&a.Proc, cs.procName, a)
}

// arrival is one request in flight: its proc, its link and what its body
// reads, in the one allocation an arrival makes for them.
type arrival struct {
	sim.Proc
	link    netsim.Link
	r       *runner
	cs      *cohortState
	k       int
	arrived sim.Time
}

// Run is the arrival's proc body.
func (a *arrival) Run(p *sim.Proc) {
	r, cs, k := a.r, a.cs, a.k
	dev := deviceID(cs.spec.Name, k%cs.spec.Devices)
	a.link.SetFault(dev, r.linkFault)
	task := cs.apps[k%len(cs.apps)].NewTask(cs.taskRng, k/cs.spec.Devices) // seq: unique per device, the idempotency key half
	ci := cs.code(k)
	err := r.offload(p, cs, device.Client{ID: dev, Link: &a.link, Chunked: cs.spec.ChunkedPush}, task, cs.codes[ci])
	if err == nil {
		cs.served[ci] = true
		cs.succeeded++
		cs.latencies = append(cs.latencies, (r.e.Now() - a.arrived).Duration().Seconds())
	} else {
		cs.failed++
	}
	for _, ac := range r.afters {
		if a.arrived >= ac.at {
			ac.arrivals++
			if err == nil {
				ac.succeeded++
			}
		}
	}
}

// code is the index in codes of the code blob arrival k offloads, filled
// in on first use. Distinct code sizes make distinct AIDs: variants spread
// one app's traffic over Variants consistent-hash placements.
func (cs *cohortState) code(k int) int {
	i, v := k%len(cs.apps), k%cs.spec.Variants
	c := &cs.codes[i*cs.spec.Variants+v]
	if c.AID == "" {
		app := cs.apps[i]
		*c = offload.CodeOf(app.Name(), app.CodeSize()+host.Bytes(v))
	}
	return i*cs.spec.Variants + v
}

// deviceID names the i-th device of a cohort ("<cohort>-d<i>") with one
// allocation, the string itself.
func deviceID(cohort string, i int) string {
	var buf [64]byte
	b := append(append(buf[:0], cohort...), "-d"...)
	return string(strconv.AppendInt(b, int64(i), 10))
}

// offload drives one request under the scenario's retry policy. Jitter
// comes from the engine source: the engine serializes procs, so the draw
// order — and hence the schedule — is deterministic.
func (r *runner) offload(p *sim.Proc, cs *cohortState, c device.Client, task workload.Task, code offload.Code) error {
	for attempt := 1; ; attempt++ {
		_, err := c.Attempt(p, r.cl, task, code, nil)
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
