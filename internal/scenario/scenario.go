// Package scenario is the chaos fleet simulator: a YAML DSL that turns
// "heavy traffic from millions of users" and "as many scenarios as you
// can imagine" into checked-in, asserted artifacts. A scenario declares a
// fleet (device cohorts with network profiles, app mixes, and seeded
// arrival processes), a timeline of chaos events (network profile flips,
// shard kills, fault-plan activation, autoscaler floor changes, load
// spikes), and end-of-run assertions (success rate, latency percentiles,
// lifecycle-census invariants). The runner drives the whole fleet through
// the discrete-event engine against the real cluster/platform stack —
// devices are lightweight per-request state machines, not
// goroutine-per-device objects, so a million-device soak is an ordinary
// scenario file — and emits a machine-readable report that is
// bit-identical across runs at one seed.
package scenario

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/faults"
	"rattrap/internal/netsim"
	"rattrap/internal/offload"
	"rattrap/internal/workload"
)

// Schema hard limits. Validation rejects anything beyond them with a
// typed *SchemaError, so a malformed or adversarial scenario can neither
// panic the runner nor make it allocate without bound.
const (
	MaxShards        = 64
	MaxCohorts       = 64
	MaxEvents        = 1024
	MaxAssertions    = 256
	MaxCohortDevices = 4_000_000
	MaxTotalArrivals = 16_000_000
	MaxVariants      = 65_536
	MaxVirtual       = 48 * time.Hour
	MaxLinpackOrder  = 512
)

// SchemaError is a semantic error in a syntactically valid scenario: an
// unknown key, an out-of-range value, a reference to a missing cohort.
type SchemaError struct {
	Line int
	Path string // dotted location, e.g. "fleet[0].devices"
	Msg  string
}

func (e *SchemaError) Error() string {
	return fmt.Sprintf("scenario: line %d: %s: %s", e.Line, e.Path, e.Msg)
}

// Scenario is one decoded, validated scenario file.
type Scenario struct {
	Name        string
	Description string
	Seed        int64
	Shards      int
	Platform    PlatformSpec
	Client      offload.RetryPolicy // every arrival's; the decoder defaults to one attempt
	Fleet       []CohortSpec
	Events      []EventSpec
	Assertions  []AssertionSpec
}

// PlatformSpec shapes every shard's core.Platform.
type PlatformSpec struct {
	Kind          core.Kind
	MaxRuntimes   int
	MinRuntimes   int
	MaxQueueDepth int
	IdleTimeout   time.Duration
	Autoscale     bool
	Interval      time.Duration // autoscale control interval
	TemplateBoot  bool          // clone runtimes from the captured template
	// Replicas is the warehouse replica factor R: every pushed entry fans
	// out to the R shards clockwise of its AID, so a shard failure loses
	// no cached code. 1 (the default) is the replica-free PR 5 cluster.
	Replicas int
}

// ArrivalKind selects a cohort's arrival process.
type ArrivalKind uint8

const (
	// ArrivalUniform spaces arrivals evenly: exactly Devices ×
	// RequestsPerDevice of them over Duration.
	ArrivalUniform ArrivalKind = iota
	// ArrivalPoisson draws exponential inter-arrival gaps at the same
	// mean rate from the cohort's seeded source.
	ArrivalPoisson
)

func (k ArrivalKind) String() string {
	if k == ArrivalPoisson {
		return "poisson"
	}
	return "uniform"
}

// CohortSpec is one device population: how many devices, on what network,
// running which apps, arriving how.
type CohortSpec struct {
	Name              string
	Devices           int
	RequestsPerDevice int
	Network           netsim.Profile
	Apps              []string
	// Variants spreads the cohort's requests over this many distinct AID
	// families per app (distinct code sizes, hence distinct consistent-hash
	// placements) — how a scenario exercises more than len(Apps) shards.
	Variants int
	Arrival  ArrivalKind
	Start    time.Duration
	Duration time.Duration
	// LinpackOrder, when positive, pins every Linpack request in this
	// cohort to one fixed system order (a shared parameter blob) instead
	// of the app's random 110–149 draw — the knob that makes per-request
	// cost, and therefore scenario wall-time at a million devices,
	// a declared quantity.
	LinpackOrder int
}

// Rate is the cohort's mean arrival rate in requests per second.
func (c CohortSpec) Rate() float64 {
	return float64(c.Devices*c.RequestsPerDevice) / c.Duration.Seconds()
}

// EventKind enumerates the chaos timeline vocabulary.
type EventKind uint8

const (
	// EvSetNetwork flips a cohort's network profile; requests arriving
	// after the event use the new profile (in-flight ones keep theirs).
	EvSetNetwork EventKind = iota
	// EvLoadSpike multiplies a cohort's arrival rate by Factor for
	// Duration. The cohort's total request count is unchanged — the spike
	// compresses the remaining schedule, which is exactly a burst.
	EvLoadSpike
	// EvFaultPlan activates a named fault plan on every shard and every
	// device link, replacing any active plan.
	EvFaultPlan
	// EvClearFaults deactivates the active fault plan.
	EvClearFaults
	// EvKillShard cordons every runtime on one shard: in-flight requests
	// finish, then the runtimes drain and the pool rebuilds from cold —
	// the graceful-chaos analog of power-cycling the shard's node.
	EvKillShard
	// EvSetFloor changes every shard's autoscaler floor (MinRuntimes) at
	// runtime via core.Platform.SetPoolBounds.
	EvSetFloor
	// EvAddShard joins a fresh shard to the cluster: it boots, pulls its
	// vnode ranges as chunk deltas, and is commissioned into the ring —
	// live elastic capacity, not a restart.
	EvAddShard
	// EvRemoveShard drains one shard gracefully: it keeps serving while
	// its entries migrate to their next owners, then leaves the ring.
	EvRemoveShard
	// EvFailShard crashes one shard: immediately unroutable, in-flight
	// sessions get ErrShardDown (retryable), and with replicas > 1 the
	// survivors re-replicate its entries.
	EvFailShard
)

func (k EventKind) String() string {
	switch k {
	case EvSetNetwork:
		return "set-network"
	case EvLoadSpike:
		return "load-spike"
	case EvFaultPlan:
		return "fault-plan"
	case EvClearFaults:
		return "clear-faults"
	case EvKillShard:
		return "kill-shard"
	case EvSetFloor:
		return "set-floor"
	case EvAddShard:
		return "add-shard"
	case EvRemoveShard:
		return "remove-shard"
	case EvFailShard:
		return "fail-shard"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// EventSpec is one timed chaos action.
type EventSpec struct {
	At     time.Duration
	Kind   EventKind
	Cohort int            // EvSetNetwork, EvLoadSpike: index into Fleet
	Net    netsim.Profile // EvSetNetwork
	Factor float64        // EvLoadSpike
	Dur    time.Duration  // EvLoadSpike
	Plan   string         // EvFaultPlan
	Shard  int            // EvKillShard, EvRemoveShard, EvFailShard
	Floor  int            // EvSetFloor
}

// AssertionKind enumerates the end-of-run checks.
type AssertionKind uint8

const (
	// AssertSuccessRate: succeeded/arrivals ≥ Min (optionally per cohort).
	AssertSuccessRate AssertionKind = iota
	// AssertP50 / AssertP99 / AssertMax: latency percentile ≤ MaxDur.
	AssertP50
	AssertP99
	AssertMaxLatency
	// AssertCensus: every shard's lifecycle census matches its slot list —
	// idle == slots, and no runtime stuck active, booting, or draining
	// after the engine drained. This is the PR-7 invariant (no stranded
	// slots, no draining capacity leak) as a scenario gate.
	AssertCensus
	// AssertPoolFloor: every shard ends with at least Min runtimes — zero
	// permanent capacity loss under teardown faults.
	AssertPoolFloor
	// AssertFinalPool: the cluster-wide final pool is within [Min, Max].
	AssertFinalPool
	// AssertMinRequests: the fleet generated at least Min arrivals.
	AssertMinRequests
	// AssertWarehouseHitRate: warehouse hits / (hits+misses) ≥ Min.
	AssertWarehouseHitRate
	// AssertOverloads: overload rejections observed are within [Min, Max].
	AssertOverloads
	// AssertBootP50 / AssertBootP99: runtime boot duration percentile
	// across every shard ≤ MaxDur. With template_boot on, this is the
	// gate that the pool really is cloning rather than cold-booting.
	AssertBootP50
	AssertBootP99
	// AssertLiveShards: the final count of routable shards is within
	// [Min, Max] — did the membership end up where the timeline said.
	AssertLiveShards
	// AssertSuccessRateAfter: among requests arriving at or after After,
	// succeeded/arrivals ≥ Min — the post-chaos recovery gate (a shard
	// kill early in the soak must not depress the whole-run rate view).
	AssertSuccessRateAfter
)

func (k AssertionKind) String() string {
	switch k {
	case AssertSuccessRate:
		return "success-rate"
	case AssertP50:
		return "p50"
	case AssertP99:
		return "p99"
	case AssertMaxLatency:
		return "max-latency"
	case AssertCensus:
		return "census"
	case AssertPoolFloor:
		return "pool-floor"
	case AssertFinalPool:
		return "final-pool"
	case AssertMinRequests:
		return "min-requests"
	case AssertWarehouseHitRate:
		return "warehouse-hit-rate"
	case AssertOverloads:
		return "overloads"
	case AssertBootP50:
		return "boot-p50"
	case AssertBootP99:
		return "boot-p99"
	case AssertLiveShards:
		return "live-shards"
	case AssertSuccessRateAfter:
		return "success-rate-after"
	}
	return fmt.Sprintf("AssertionKind(%d)", int(k))
}

// AssertionSpec is one end-of-run check.
type AssertionSpec struct {
	Kind   AssertionKind
	Cohort int // -1 = whole fleet; else index into Fleet
	Min    float64
	Max    float64
	MaxDur time.Duration
	After  time.Duration // AssertSuccessRateAfter: arrival-time cutoff
	HasMin bool
	HasMax bool
}

// Load reads and decodes one scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Decode(data)
}

// Decode parses and validates scenario YAML. Every failure is a typed
// *ParseError (syntax) or *SchemaError (semantics); Decode never panics
// on any input and its allocations are bounded by the schema limits.
func Decode(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	scn := d.scenario(root)
	if d.err != nil {
		return nil, d.err
	}
	return scn, nil
}

// decoder walks the node tree, accumulating the first error. Every read
// marks its key consumed; unconsumed keys are unknown-key errors, so a
// typo in a checked-in scenario fails -scenario-validate instead of
// silently meaning nothing.
type decoder struct {
	err error
}

func (d *decoder) fail(n *yamlNode, path, msg string) {
	if d.err == nil {
		line := 0
		if n != nil {
			line = n.line
		}
		d.err = &SchemaError{Line: line, Path: path, Msg: msg}
	}
}

// used tracks key consumption for one mapping.
type used map[string]bool

func (d *decoder) checkUnknown(n *yamlNode, path string, u used) {
	for _, k := range n.keys {
		if !u[k] {
			d.fail(n.get(k), path+"."+k, "unknown key")
			return
		}
	}
}

func (d *decoder) mapping(n *yamlNode, path string) *yamlNode {
	if d.err != nil {
		return nil
	}
	if n.kind != yMap {
		d.fail(n, path, "expected a mapping")
		return nil
	}
	return n
}

func (d *decoder) str(n *yamlNode, path string, u used, key, def string) string {
	if d.err != nil || n == nil {
		return def
	}
	u[key] = true
	v := n.get(key)
	if v == nil {
		return def
	}
	if v.kind != yScalar {
		d.fail(v, path+"."+key, "expected a scalar")
		return def
	}
	return v.scalar
}

func (d *decoder) requiredStr(n *yamlNode, path string, u used, key string) string {
	s := d.str(n, path, u, key, "")
	if d.err == nil && s == "" {
		d.fail(n, path+"."+key, "required")
	}
	return s
}

func (d *decoder) intVal(n *yamlNode, path string, u used, key string, def, lo, hi int) int {
	if d.err != nil || n == nil {
		return def
	}
	u[key] = true
	v := n.get(key)
	if v == nil {
		return def
	}
	if v.kind != yScalar {
		d.fail(v, path+"."+key, "expected an integer")
		return def
	}
	i, err := strconv.Atoi(v.scalar)
	if err != nil {
		d.fail(v, path+"."+key, fmt.Sprintf("bad integer %q", v.scalar))
		return def
	}
	if i < lo || i > hi {
		d.fail(v, path+"."+key, fmt.Sprintf("%d out of range [%d, %d]", i, lo, hi))
		return def
	}
	return i
}

func (d *decoder) floatVal(n *yamlNode, path string, u used, key string, def, lo, hi float64) float64 {
	if d.err != nil || n == nil {
		return def
	}
	u[key] = true
	v := n.get(key)
	if v == nil {
		return def
	}
	if v.kind != yScalar {
		d.fail(v, path+"."+key, "expected a number")
		return def
	}
	f, err := strconv.ParseFloat(v.scalar, 64)
	if err != nil {
		d.fail(v, path+"."+key, fmt.Sprintf("bad number %q", v.scalar))
		return def
	}
	if f < lo || f > hi {
		d.fail(v, path+"."+key, fmt.Sprintf("%g out of range [%g, %g]", f, lo, hi))
		return def
	}
	return f
}

func (d *decoder) boolVal(n *yamlNode, path string, u used, key string, def bool) bool {
	if d.err != nil || n == nil {
		return def
	}
	u[key] = true
	v := n.get(key)
	if v == nil {
		return def
	}
	switch v.scalar {
	case "true":
		return true
	case "false":
		return false
	}
	d.fail(v, path+"."+key, fmt.Sprintf("expected true or false, got %q", v.scalar))
	return def
}

// durVal parses a duration scalar ("30s", "1h30m"). Bare numbers are
// rejected: a unitless time is exactly the ambiguity a DSL should refuse.
func (d *decoder) durVal(n *yamlNode, path string, u used, key string, def, lo, hi time.Duration) time.Duration {
	if d.err != nil || n == nil {
		return def
	}
	u[key] = true
	v := n.get(key)
	if v == nil {
		return def
	}
	if v.kind != yScalar {
		d.fail(v, path+"."+key, "expected a duration")
		return def
	}
	dur, err := time.ParseDuration(v.scalar)
	if err != nil {
		d.fail(v, path+"."+key, fmt.Sprintf("bad duration %q (use Go syntax: 30s, 1m30s)", v.scalar))
		return def
	}
	if dur < lo || dur > hi {
		d.fail(v, path+"."+key, fmt.Sprintf("%v out of range [%v, %v]", dur, lo, hi))
		return def
	}
	return dur
}

// profileByName resolves the DSL's network slugs (plus the paper's
// display names) to netsim profiles.
func profileByName(name string) (netsim.Profile, bool) {
	switch strings.ToLower(name) {
	case "lan-wifi":
		return netsim.LANWiFi(), true
	case "wan-wifi":
		return netsim.WANWiFi(), true
	case "3g":
		return netsim.ThreeG(), true
	case "4g":
		return netsim.FourG(), true
	}
	p, err := netsim.ProfileByName(name)
	return p, err == nil
}

func (d *decoder) network(n *yamlNode, path string, u used, key string) netsim.Profile {
	name := d.requiredStr(n, path, u, key)
	if d.err != nil {
		return netsim.Profile{}
	}
	p, ok := profileByName(name)
	if !ok {
		d.fail(n.get(key), path+"."+key, fmt.Sprintf("unknown network profile %q (lan-wifi, wan-wifi, 3g, 4g)", name))
	}
	return p
}

func (d *decoder) scenario(root *yamlNode) *Scenario {
	path := "scenario"
	u := used{}
	scn := &Scenario{
		Name:        d.requiredStr(root, path, u, "name"),
		Description: d.str(root, path, u, "description", ""),
		Seed:        int64(d.intVal(root, path, u, "seed", 42, 0, 1<<31)),
		Shards:      d.intVal(root, path, u, "shards", 1, 1, MaxShards),
	}
	scn.Platform = d.platform(root, path, u)
	scn.Client = d.client(root, path, u)
	scn.Fleet = d.fleet(root, path, u)
	scn.Events = d.events(root, path, u, scn)
	scn.Assertions = d.assertions(root, path, u, scn)
	if d.err == nil {
		d.checkUnknown(root, path, u)
	}
	if d.err == nil {
		d.crossValidate(root, scn)
	}
	if d.err != nil {
		return nil
	}
	return scn
}

func (d *decoder) platform(root *yamlNode, path string, ru used) PlatformSpec {
	ru["platform"] = true
	spec := PlatformSpec{
		Kind:        core.KindRattrap,
		MaxRuntimes: 5,
		Interval:    200 * time.Millisecond,
	}
	n := root.get("platform")
	if n == nil || d.err != nil {
		return spec
	}
	p := path + ".platform"
	if d.mapping(n, p) == nil {
		return spec
	}
	u := used{}
	switch kind := d.str(n, p, u, "kind", "rattrap"); kind {
	case "rattrap":
		spec.Kind = core.KindRattrap
	case "rattrap-wo":
		spec.Kind = core.KindRattrapWO
	case "vm":
		spec.Kind = core.KindVM
	default:
		d.fail(n.get("kind"), p+".kind", fmt.Sprintf("unknown platform kind %q (rattrap, rattrap-wo, vm)", kind))
	}
	spec.MaxRuntimes = d.intVal(n, p, u, "max_runtimes", 5, 1, 256)
	spec.MinRuntimes = d.intVal(n, p, u, "min_runtimes", 0, 0, 256)
	spec.MaxQueueDepth = d.intVal(n, p, u, "max_queue_depth", 0, 0, 1<<20)
	spec.IdleTimeout = d.durVal(n, p, u, "idle_timeout", 0, 0, MaxVirtual)
	spec.Autoscale = d.boolVal(n, p, u, "autoscale", false)
	spec.TemplateBoot = d.boolVal(n, p, u, "template_boot", false)
	spec.Interval = d.durVal(n, p, u, "autoscale_interval", 200*time.Millisecond, time.Millisecond, time.Minute)
	spec.Replicas = d.intVal(n, p, u, "replicas", 1, 1, MaxShards)
	if d.err == nil && spec.MinRuntimes > spec.MaxRuntimes {
		d.fail(n, p, fmt.Sprintf("min_runtimes %d exceeds max_runtimes %d", spec.MinRuntimes, spec.MaxRuntimes))
	}
	if d.err == nil {
		d.checkUnknown(n, p, u)
	}
	return spec
}

func (d *decoder) client(root *yamlNode, path string, ru used) offload.RetryPolicy {
	ru["client"] = true
	spec := offload.RetryPolicy{MaxAttempts: 1}.WithDefaults()
	n := root.get("client")
	if n == nil || d.err != nil {
		return spec
	}
	p := path + ".client"
	if d.mapping(n, p) == nil {
		return spec
	}
	u := used{}
	spec.MaxAttempts = d.intVal(n, p, u, "max_attempts", 1, 1, 16)
	spec.BaseDelay = d.durVal(n, p, u, "base_delay", spec.BaseDelay, time.Millisecond, time.Minute)
	spec.MaxDelay = d.durVal(n, p, u, "max_delay", spec.MaxDelay, time.Millisecond, time.Hour)
	if d.err == nil {
		d.checkUnknown(n, p, u)
	}
	return spec
}

func (d *decoder) fleet(root *yamlNode, path string, ru used) []CohortSpec {
	ru["fleet"] = true
	n := root.get("fleet")
	if d.err != nil {
		return nil
	}
	if n == nil {
		d.fail(root, path+".fleet", "required")
		return nil
	}
	if n.kind != ySeq {
		d.fail(n, path+".fleet", "expected a sequence of cohorts")
		return nil
	}
	if len(n.items) == 0 || len(n.items) > MaxCohorts {
		d.fail(n, path+".fleet", fmt.Sprintf("need 1..%d cohorts, got %d", MaxCohorts, len(n.items)))
		return nil
	}
	var out []CohortSpec
	for i, item := range n.items {
		p := fmt.Sprintf("%s.fleet[%d]", path, i)
		if d.mapping(item, p) == nil {
			return nil
		}
		u := used{}
		c := CohortSpec{
			Name:              d.requiredStr(item, p, u, "cohort"),
			Devices:           d.intVal(item, p, u, "devices", 0, 1, MaxCohortDevices),
			RequestsPerDevice: d.intVal(item, p, u, "requests_per_device", 1, 1, 1000),
			Network:           d.network(item, p, u, "network"),
			Variants:          d.intVal(item, p, u, "variants", 1, 1, MaxVariants),
			Start:             d.durVal(item, p, u, "start", 0, 0, MaxVirtual),
			Duration:          d.durVal(item, p, u, "duration", 0, time.Millisecond, MaxVirtual),
			LinpackOrder:      d.intVal(item, p, u, "linpack_order", 0, 0, MaxLinpackOrder),
		}
		if d.err == nil && n.items[i].get("devices") == nil {
			d.fail(item, p+".devices", "required")
		}
		if d.err == nil && n.items[i].get("duration") == nil {
			d.fail(item, p+".duration", "required")
		}
		c.Apps = d.apps(item, p, u)
		switch arr := d.str(item, p, u, "arrival", "uniform"); arr {
		case "uniform":
			c.Arrival = ArrivalUniform
		case "poisson":
			c.Arrival = ArrivalPoisson
		default:
			d.fail(item.get("arrival"), p+".arrival", fmt.Sprintf("unknown arrival process %q (uniform, poisson)", arr))
		}
		if d.err == nil {
			d.checkUnknown(item, p, u)
		}
		if d.err != nil {
			return nil
		}
		out = append(out, c)
	}
	return out
}

func (d *decoder) apps(n *yamlNode, path string, u used) []string {
	u["apps"] = true
	v := n.get("apps")
	if d.err != nil {
		return nil
	}
	if v == nil {
		return []string{workload.NameLinpack}
	}
	if v.kind != ySeq || len(v.items) == 0 {
		d.fail(v, path+".apps", "expected a non-empty sequence of app names")
		return nil
	}
	var out []string
	for i, item := range v.items {
		if item.kind != yScalar {
			d.fail(item, fmt.Sprintf("%s.apps[%d]", path, i), "expected an app name")
			return nil
		}
		if _, err := workload.ByName(item.scalar); err != nil {
			d.fail(item, fmt.Sprintf("%s.apps[%d]", path, i), fmt.Sprintf("unknown app %q", item.scalar))
			return nil
		}
		out = append(out, item.scalar)
	}
	return out
}

// cohortIndex resolves a cohort reference by name.
func (d *decoder) cohortIndex(n *yamlNode, path string, u used, key string, scn *Scenario) int {
	name := d.requiredStr(n, path, u, key)
	if d.err != nil {
		return -1
	}
	for i, c := range scn.Fleet {
		if c.Name == name {
			return i
		}
	}
	d.fail(n.get(key), path+"."+key, fmt.Sprintf("unknown cohort %q", name))
	return -1
}

func (d *decoder) events(root *yamlNode, path string, ru used, scn *Scenario) []EventSpec {
	ru["events"] = true
	n := root.get("events")
	if n == nil || d.err != nil {
		return nil
	}
	if n.kind != ySeq {
		d.fail(n, path+".events", "expected a sequence of events")
		return nil
	}
	if len(n.items) > MaxEvents {
		d.fail(n, path+".events", fmt.Sprintf("more than %d events", MaxEvents))
		return nil
	}
	var out []EventSpec
	adds := 0 // add-shard events decoded so far: they extend the shard id space
	for i, item := range n.items {
		p := fmt.Sprintf("%s.events[%d]", path, i)
		if d.mapping(item, p) == nil {
			return nil
		}
		u := used{}
		ev := EventSpec{At: d.durVal(item, p, u, "at", 0, 0, MaxVirtual), Cohort: -1}
		if d.err == nil && item.get("at") == nil {
			d.fail(item, p+".at", "required")
		}
		action := d.requiredStr(item, p, u, "action")
		if d.err != nil {
			return nil
		}
		switch action {
		case "set-network":
			ev.Kind = EvSetNetwork
			ev.Cohort = d.cohortIndex(item, p, u, "cohort", scn)
			ev.Net = d.network(item, p, u, "network")
		case "load-spike":
			ev.Kind = EvLoadSpike
			ev.Cohort = d.cohortIndex(item, p, u, "cohort", scn)
			ev.Factor = d.floatVal(item, p, u, "factor", 0, 0.01, 1000)
			if d.err == nil && item.get("factor") == nil {
				d.fail(item, p+".factor", "required")
			}
			ev.Dur = d.durVal(item, p, u, "duration", 0, time.Millisecond, MaxVirtual)
			if d.err == nil && item.get("duration") == nil {
				d.fail(item, p+".duration", "required")
			}
		case "fault-plan":
			ev.Kind = EvFaultPlan
			ev.Plan = d.requiredStr(item, p, u, "plan")
			if d.err == nil {
				if _, ok := planByName(ev.Plan, 0); !ok {
					d.fail(item.get("plan"), p+".plan", fmt.Sprintf("unknown fault plan %q (%s)", ev.Plan, strings.Join(PlanNames(), ", ")))
				}
			}
		case "clear-faults":
			ev.Kind = EvClearFaults
		case "kill-shard":
			ev.Kind = EvKillShard
			ev.Shard = d.intVal(item, p, u, "shard", 0, 0, MaxShards-1)
			if d.err == nil && ev.Shard >= scn.Shards {
				d.fail(item.get("shard"), p+".shard", fmt.Sprintf("shard %d out of range (scenario has %d)", ev.Shard, scn.Shards))
			}
		case "add-shard":
			ev.Kind = EvAddShard
			adds++
			if d.err == nil && scn.Shards+adds > MaxShards {
				d.fail(item, p, fmt.Sprintf("add-shard would exceed %d shards", MaxShards))
			}
		case "remove-shard", "fail-shard":
			if action == "remove-shard" {
				ev.Kind = EvRemoveShard
			} else {
				ev.Kind = EvFailShard
			}
			ev.Shard = d.intVal(item, p, u, "shard", 0, 0, MaxShards-1)
			// Earlier add-shard events extend the addressable id space:
			// shard ids are assigned in event order, founding shards first.
			if d.err == nil && ev.Shard >= scn.Shards+adds {
				d.fail(item.get("shard"), p+".shard",
					fmt.Sprintf("shard %d out of range (%d founding + %d added)", ev.Shard, scn.Shards, adds))
			}
		case "set-floor":
			ev.Kind = EvSetFloor
			ev.Floor = d.intVal(item, p, u, "min_runtimes", 0, 0, 256)
			if d.err == nil && item.get("min_runtimes") == nil {
				d.fail(item, p+".min_runtimes", "required")
			}
			if d.err == nil && !scn.Platform.Autoscale {
				d.fail(item, p, "set-floor requires platform.autoscale: true")
			}
			if d.err == nil && ev.Floor > scn.Platform.MaxRuntimes {
				d.fail(item.get("min_runtimes"), p+".min_runtimes", fmt.Sprintf("floor %d exceeds max_runtimes %d", ev.Floor, scn.Platform.MaxRuntimes))
			}
		default:
			d.fail(item.get("action"), p+".action", fmt.Sprintf("unknown action %q", action))
		}
		if d.err == nil {
			d.checkUnknown(item, p, u)
		}
		if d.err != nil {
			return nil
		}
		out = append(out, ev)
	}
	return out
}

func (d *decoder) assertions(root *yamlNode, path string, ru used, scn *Scenario) []AssertionSpec {
	ru["assertions"] = true
	n := root.get("assertions")
	if n == nil || d.err != nil {
		return nil
	}
	if n.kind != ySeq {
		d.fail(n, path+".assertions", "expected a sequence of assertions")
		return nil
	}
	if len(n.items) > MaxAssertions {
		d.fail(n, path+".assertions", fmt.Sprintf("more than %d assertions", MaxAssertions))
		return nil
	}
	var out []AssertionSpec
	for i, item := range n.items {
		p := fmt.Sprintf("%s.assertions[%d]", path, i)
		if d.mapping(item, p) == nil {
			return nil
		}
		u := used{}
		a := AssertionSpec{Cohort: -1}
		typ := d.requiredStr(item, p, u, "type")
		if d.err != nil {
			return nil
		}
		needMin := func(lo, hi float64) {
			a.Min = d.floatVal(item, p, u, "min", 0, lo, hi)
			a.HasMin = true
			if d.err == nil && item.get("min") == nil {
				d.fail(item, p+".min", "required")
			}
		}
		switch typ {
		case "success-rate":
			a.Kind = AssertSuccessRate
			needMin(0, 1)
			if item.get("cohort") != nil {
				a.Cohort = d.cohortIndex(item, p, u, "cohort", scn)
			}
		case "p50", "p99", "max-latency":
			switch typ {
			case "p50":
				a.Kind = AssertP50
			case "p99":
				a.Kind = AssertP99
			default:
				a.Kind = AssertMaxLatency
			}
			a.MaxDur = d.durVal(item, p, u, "max", 0, time.Microsecond, MaxVirtual)
			a.HasMax = true
			if d.err == nil && item.get("max") == nil {
				d.fail(item, p+".max", "required")
			}
			if item.get("cohort") != nil {
				a.Cohort = d.cohortIndex(item, p, u, "cohort", scn)
			}
		case "census":
			a.Kind = AssertCensus
		case "pool-floor":
			a.Kind = AssertPoolFloor
			a.Min = float64(d.intVal(item, p, u, "min", scn.Platform.MinRuntimes, 0, 1<<20))
			a.HasMin = true
		case "final-pool":
			a.Kind = AssertFinalPool
			if item.get("min") != nil {
				a.Min = float64(d.intVal(item, p, u, "min", 0, 0, 1<<20))
				a.HasMin = true
			}
			if item.get("max") != nil {
				a.Max = float64(d.intVal(item, p, u, "max", 0, 0, 1<<20))
				a.HasMax = true
			}
			if d.err == nil && !a.HasMin && !a.HasMax {
				d.fail(item, p, "final-pool needs min and/or max")
			}
		case "min-requests":
			a.Kind = AssertMinRequests
			a.Min = float64(d.intVal(item, p, u, "min", 0, 1, MaxTotalArrivals))
			a.HasMin = true
			if d.err == nil && item.get("min") == nil {
				d.fail(item, p+".min", "required")
			}
		case "boot-p50", "boot-p99":
			if typ == "boot-p50" {
				a.Kind = AssertBootP50
			} else {
				a.Kind = AssertBootP99
			}
			a.MaxDur = d.durVal(item, p, u, "max", 0, time.Microsecond, MaxVirtual)
			a.HasMax = true
			if d.err == nil && item.get("max") == nil {
				d.fail(item, p+".max", "required")
			}
		case "warehouse-hit-rate":
			a.Kind = AssertWarehouseHitRate
			needMin(0, 1)
		case "live-shards":
			a.Kind = AssertLiveShards
			if item.get("min") != nil {
				a.Min = float64(d.intVal(item, p, u, "min", 0, 0, MaxShards))
				a.HasMin = true
			}
			if item.get("max") != nil {
				a.Max = float64(d.intVal(item, p, u, "max", 0, 0, MaxShards))
				a.HasMax = true
			}
			if d.err == nil && !a.HasMin && !a.HasMax {
				d.fail(item, p, "live-shards needs min and/or max")
			}
		case "success-rate-after":
			a.Kind = AssertSuccessRateAfter
			a.After = d.durVal(item, p, u, "after", 0, 0, MaxVirtual)
			if d.err == nil && item.get("after") == nil {
				d.fail(item, p+".after", "required")
			}
			needMin(0, 1)
		case "overloads":
			a.Kind = AssertOverloads
			if item.get("min") != nil {
				a.Min = float64(d.intVal(item, p, u, "min", 0, 0, MaxTotalArrivals))
				a.HasMin = true
			}
			if item.get("max") != nil {
				a.Max = float64(d.intVal(item, p, u, "max", 0, 0, MaxTotalArrivals))
				a.HasMax = true
			}
			if d.err == nil && !a.HasMin && !a.HasMax {
				d.fail(item, p, "overloads needs min and/or max")
			}
		default:
			d.fail(item.get("type"), p+".type", fmt.Sprintf("unknown assertion type %q", typ))
		}
		if d.err == nil {
			d.checkUnknown(item, p, u)
		}
		if d.err != nil {
			return nil
		}
		out = append(out, a)
	}
	return out
}

// crossValidate checks whole-scenario bounds that no single field owns.
func (d *decoder) crossValidate(root *yamlNode, scn *Scenario) {
	total := 0
	for i, c := range scn.Fleet {
		arrivals := c.Devices * c.RequestsPerDevice
		if arrivals > MaxTotalArrivals {
			d.fail(root.get("fleet"), fmt.Sprintf("scenario.fleet[%d]", i),
				fmt.Sprintf("%d arrivals exceed the %d cap", arrivals, MaxTotalArrivals))
			return
		}
		total += arrivals
		if end := c.Start + c.Duration; end > MaxVirtual {
			d.fail(root.get("fleet"), fmt.Sprintf("scenario.fleet[%d]", i),
				fmt.Sprintf("start+duration %v exceeds the %v horizon", end, MaxVirtual))
			return
		}
		for j := range scn.Fleet[:i] {
			if scn.Fleet[j].Name == c.Name {
				d.fail(root.get("fleet"), fmt.Sprintf("scenario.fleet[%d].cohort", i),
					fmt.Sprintf("duplicate cohort name %q", c.Name))
				return
			}
		}
	}
	if total > MaxTotalArrivals {
		d.fail(root.get("fleet"), "scenario.fleet",
			fmt.Sprintf("%d total arrivals exceed the %d cap", total, MaxTotalArrivals))
		return
	}
	if scn.Platform.Replicas > scn.Shards {
		d.fail(root.get("platform"), "scenario.platform.replicas",
			fmt.Sprintf("replicas %d exceeds shards %d", scn.Platform.Replicas, scn.Shards))
	}
}

// PlanNames lists the fault plans a scenario's fault-plan event can
// activate: the standard robustness suite plus the scenario-specific
// chaos plans.
func PlanNames() []string {
	names := []string{"healthy"}
	for _, p := range faults.StandardPlans(0) {
		names = append(names, p.Name)
	}
	return append(names, "teardown-storm", "exec-flaky")
}

// planByName instantiates a named fault plan at the given seed.
func planByName(name string, seed int64) (faults.Plan, bool) {
	if name == "healthy" {
		return faults.Healthy(), true
	}
	for _, p := range faults.StandardPlans(seed) {
		if p.Name == name {
			return p, true
		}
	}
	switch name {
	case "teardown-storm":
		// Every other teardown fails at the guest layer: the repaired
		// StopRuntime must still reclaim every slot (zero capacity loss).
		return faults.Plan{Name: name, Seed: seed, Rules: []faults.Rule{
			{Site: faults.SiteTeardown, Kind: faults.Drop, Every: 2},
		}}, true
	case "exec-flaky":
		// One in five executions fails; success clears strikes, so only
		// genuinely sick runtimes reach the cordon threshold.
		return faults.Plan{Name: name, Seed: seed, Rules: []faults.Rule{
			{Site: faults.SiteExec, Kind: faults.Drop, P: 0.2},
		}}, true
	}
	return faults.Plan{}, false
}

// IsScenarioError reports whether err is a typed scenario decode error
// (the fuzz target's never-panic contract).
func IsScenarioError(err error) bool {
	var pe *ParseError
	var se *SchemaError
	return errors.As(err, &pe) || errors.As(err, &se)
}
