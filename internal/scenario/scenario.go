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

// PlatformSpec shapes every shard's core.Platform: platform.preset picks
// core.DefaultConfig (paper, the default) or core.ServingConfig (serving),
// and the other platform keys decode straight into the embedded
// core.Config.
type PlatformSpec struct {
	core.Config
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
	// ChunkedPush makes the cohort's devices push code as a chunk offer
	// and the delta the warehouse is missing (device.Client.Chunked).
	ChunkedPush bool
}

// Rate is the cohort's mean arrival rate in requests per second.
func (c CohortSpec) Rate() float64 {
	return float64(c.Devices*c.RequestsPerDevice) / c.Duration.Seconds()
}

// EventKind enumerates the chaos timeline vocabulary. Each constant is
// the event's YAML action word, and the word its report row carries.
type EventKind string

const (
	// EvSetNetwork flips a cohort's network profile; requests arriving
	// after the event use the new profile (in-flight ones keep theirs).
	EvSetNetwork EventKind = "set-network"
	// EvLoadSpike multiplies a cohort's arrival rate by Factor for
	// Duration. The cohort's total request count is unchanged — the spike
	// compresses the remaining schedule, which is exactly a burst.
	EvLoadSpike EventKind = "load-spike"
	// EvFaultPlan activates a named fault plan on every shard and every
	// device link, replacing any active plan.
	EvFaultPlan EventKind = "fault-plan"
	// EvClearFaults deactivates the active fault plan.
	EvClearFaults EventKind = "clear-faults"
	// EvKillShard cordons every runtime on one shard: in-flight requests
	// finish, then the runtimes drain and the pool rebuilds from cold —
	// the graceful-chaos analog of power-cycling the shard's node.
	EvKillShard EventKind = "kill-shard"
	// EvSetFloor changes every shard's pool bounds at runtime via
	// core.Platform.SetPoolBounds: the autoscaler floor (MinRuntimes) and,
	// when the event names one, the ceiling (MaxRuntimes).
	EvSetFloor EventKind = "set-floor"
	// EvAddShard joins a fresh shard to the cluster: it boots, pulls its
	// vnode ranges as chunk deltas, and is commissioned into the ring —
	// live elastic capacity, not a restart.
	EvAddShard EventKind = "add-shard"
	// EvRemoveShard drains one shard gracefully: it keeps serving while
	// its entries migrate to their next owners, then leaves the ring.
	EvRemoveShard EventKind = "remove-shard"
	// EvFailShard crashes one shard: immediately unroutable, in-flight
	// sessions get ErrShardDown (retryable), and with replicas > 1 the
	// survivors re-replicate its entries.
	EvFailShard EventKind = "fail-shard"
)

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
	// MaxRuntimes is EvSetFloor's ceiling when HasMax; without it the
	// event restores platform.max_runtimes.
	MaxRuntimes int
	HasMax      bool
}

// AssertionKind enumerates the end-of-run checks. Each constant is the
// assertion's YAML type word, and the word its report row carries;
// assertionDefs declares how each decodes and what it measures.
type AssertionKind string

const (
	// AssertSuccessRate: succeeded/arrivals ≥ Min (optionally per cohort).
	AssertSuccessRate AssertionKind = "success-rate"
	// AssertP50 / AssertP99 / AssertMax: latency percentile ≤ MaxDur.
	AssertP50        AssertionKind = "p50"
	AssertP99        AssertionKind = "p99"
	AssertMaxLatency AssertionKind = "max-latency"
	// AssertCensus: every shard's lifecycle census matches its slot list —
	// idle == slots, and no runtime stuck active, booting, or draining
	// after the engine drained. This is the PR-7 invariant (no stranded
	// slots, no draining capacity leak) as a scenario gate.
	AssertCensus AssertionKind = "census"
	// AssertPoolFloor: every shard still in the ring ends with at least
	// Min runtimes — zero permanent capacity loss under teardown faults.
	AssertPoolFloor AssertionKind = "pool-floor"
	// AssertFinalPool: the cluster-wide final pool is within [Min, Max].
	AssertFinalPool AssertionKind = "final-pool"
	// AssertMinRequests: the fleet generated at least Min arrivals.
	AssertMinRequests AssertionKind = "min-requests"
	// AssertWarehouseHitRate: warehouse hits / (hits+misses) ≥ Min.
	AssertWarehouseHitRate AssertionKind = "warehouse-hit-rate"
	// AssertOverloads: overload rejections observed are within [Min, Max].
	AssertOverloads AssertionKind = "overloads"
	// AssertBootP50 / AssertBootP99: runtime boot duration percentile
	// across every shard ≤ MaxDur. Under preset: serving, this is the
	// gate that the pool really is cloning rather than cold-booting.
	AssertBootP50 AssertionKind = "boot-p50"
	AssertBootP99 AssertionKind = "boot-p99"
	// AssertLiveShards: the final count of routable shards is within
	// [Min, Max] — did the membership end up where the timeline said.
	AssertLiveShards AssertionKind = "live-shards"
	// AssertSuccessRateAfter: among requests arriving at or after After,
	// succeeded/arrivals ≥ Min — the post-chaos recovery gate (a shard
	// kill early in the soak must not depress the whole-run rate view).
	AssertSuccessRateAfter AssertionKind = "success-rate-after"
)

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

// boundShape is the form of an assertion's bound, which fixes both how
// it decodes and how its report row reads.
type boundShape uint8

const (
	shapeNone    boundShape = iota // no bound (census)
	shapeRate                      // min in [0, 1]: ">= 0.9900" / "0.9950"
	shapeLatency                   // max duration: "<= 250.0ms" / "212.3ms"
	shapeCount                     // integer min and/or max: "in [1, 4]" / "3"
)

// countSides says which sides of a shapeCount bound an assertion takes.
type countSides uint8

const (
	minOrMax  countSides = iota // min, max or both; at least one
	minOnly                     // min, required
	floorOnly                   // min, defaulting to platform.min_runtimes
)

// measureFunc reads an assertion's value off the finished run; st is the
// asserted cohort's stats (the fleet's when the assertion has none). n is
// the sample size behind the value, for the types that report one.
type measureFunc func(r *runner, rep *Report, a AssertionSpec, st Stats) (v float64, n int)

// assertionDef declares one assertion type.
type assertionDef struct {
	shape  boundShape
	sides  countSides // shapeCount
	lo, hi int        // shapeCount: the range of min and max
	cohort bool       // accepts cohort:, else it measures the whole fleet
	after  bool       // requires after:, and measures arrivals from then on
	// measure is nil for census and pool-floor, which report in their own
	// words. When sample is set, Got ends " over <n> <sample>", and a run
	// with n == 0 fails with Got = none.
	measure      measureFunc
	sample, none string
}

// assertionDefs is the assertion vocabulary: every type the decoder
// accepts, and all it needs to know to decode and evaluate it.
var assertionDefs = map[AssertionKind]assertionDef{
	AssertSuccessRate: {shape: shapeRate, cohort: true, measure: func(_ *runner, _ *Report, _ AssertionSpec, st Stats) (float64, int) {
		return st.SuccessRate, 0
	}},
	AssertP50: {shape: shapeLatency, cohort: true, measure: func(_ *runner, _ *Report, _ AssertionSpec, st Stats) (float64, int) {
		return st.P50Ms, 0
	}},
	AssertP99: {shape: shapeLatency, cohort: true, measure: func(_ *runner, _ *Report, _ AssertionSpec, st Stats) (float64, int) {
		return st.P99Ms, 0
	}},
	AssertMaxLatency: {shape: shapeLatency, cohort: true, measure: func(_ *runner, _ *Report, _ AssertionSpec, st Stats) (float64, int) {
		return st.MaxMs, 0
	}},
	AssertCensus:    {},
	AssertPoolFloor: {shape: shapeCount, sides: floorOnly, hi: 1 << 20},
	AssertFinalPool: {shape: shapeCount, hi: 1 << 20, measure: func(_ *runner, rep *Report, _ AssertionSpec, _ Stats) (float64, int) {
		return float64(rep.Pool.TotalRuntimes), 0
	}},
	AssertMinRequests: {shape: shapeCount, sides: minOnly, lo: 1, hi: MaxTotalArrivals, measure: func(_ *runner, _ *Report, _ AssertionSpec, st Stats) (float64, int) {
		return float64(st.Arrivals), 0
	}},
	AssertWarehouseHitRate: {shape: shapeRate, measure: warehouseHitRate},
	AssertOverloads: {shape: shapeCount, hi: MaxTotalArrivals, measure: func(_ *runner, _ *Report, _ AssertionSpec, st Stats) (float64, int) {
		return float64(st.Overloads), 0
	}},
	AssertBootP50: {shape: shapeLatency, measure: bootPercentile(50), sample: "boots", none: "no boots"},
	AssertBootP99: {shape: shapeLatency, measure: bootPercentile(99), sample: "boots", none: "no boots"},
	AssertLiveShards: {shape: shapeCount, hi: MaxShards, measure: func(r *runner, _ *Report, _ AssertionSpec, _ Stats) (float64, int) {
		return float64(r.cl.Membership().LiveCount()), 0
	}},
	AssertSuccessRateAfter: {shape: shapeRate, after: true, measure: (*runner).successAfter,
		sample: "requests", none: "no arrivals after threshold"},
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

// list returns the items of the optional sequence under key: none when it
// is absent, and a failure when it is not a sequence or holds more than
// max items.
func (d *decoder) list(root *yamlNode, path string, ru used, key string, max int) []*yamlNode {
	ru[key] = true
	n := root.get(key)
	if n == nil || d.err != nil {
		return nil
	}
	if n.kind != ySeq {
		d.fail(n, path+"."+key, "expected a sequence of "+key)
		return nil
	}
	if len(n.items) > max {
		d.fail(n, path+"."+key, fmt.Sprintf("more than %d %s", max, key))
		return nil
	}
	return n.items
}

// mappings decodes a sequence of mappings with item, which reads each
// item's keys through u; a key it leaves unread is an error. The first
// error ends the walk and yields nil.
func mappings[T any](d *decoder, items []*yamlNode, path string, item func(n *yamlNode, p string, u used) T) []T {
	var out []T
	for i, n := range items {
		p := fmt.Sprintf("%s[%d]", path, i)
		if d.mapping(n, p) == nil {
			return nil
		}
		u := used{}
		v := item(n, p, u)
		if d.err == nil {
			d.checkUnknown(n, p, u)
		}
		if d.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// Whether a scalar lookup fails on an absent key.
const (
	optional = false
	required = true
)

// scalar is every accessor's lookup: it marks key consumed and returns its
// scalar node, or nil when an earlier error stands or the key is absent
// (failing "required" if req). A non-scalar value fails "expected <what>".
func (d *decoder) scalar(n *yamlNode, path string, u used, key, what string, req bool) *yamlNode {
	if d.err != nil || n == nil {
		return nil
	}
	u[key] = true
	v := n.get(key)
	if v == nil {
		if req {
			d.fail(n, path+"."+key, "required")
		}
		return nil
	}
	if v.kind != yScalar {
		d.fail(v, path+"."+key, "expected "+what)
		return nil
	}
	return v
}

// str reads a string; a required one must also be non-empty.
func (d *decoder) str(n *yamlNode, path string, u used, key, def string, req bool) string {
	v := d.scalar(n, path, u, key, "a scalar", req)
	if v == nil {
		return def
	}
	if req && v.scalar == "" {
		d.fail(n, path+"."+key, "required")
		return def
	}
	return v.scalar
}

// bounded returns x when it lies in [lo, hi], and otherwise fails at v
// and returns def.
func bounded[T int | float64 | time.Duration](d *decoder, v *yamlNode, path string, x, lo, hi, def T) T {
	if x < lo || x > hi {
		d.fail(v, path, fmt.Sprintf("%v out of range [%v, %v]", x, lo, hi))
		return def
	}
	return x
}

func (d *decoder) intVal(n *yamlNode, path string, u used, key string, def, lo, hi int, req bool) int {
	v := d.scalar(n, path, u, key, "an integer", req)
	if v == nil {
		return def
	}
	i, err := strconv.Atoi(v.scalar)
	if err != nil {
		d.fail(v, path+"."+key, fmt.Sprintf("bad integer %q", v.scalar))
		return def
	}
	return bounded(d, v, path+"."+key, i, lo, hi, def)
}

func (d *decoder) floatVal(n *yamlNode, path string, u used, key string, def, lo, hi float64, req bool) float64 {
	v := d.scalar(n, path, u, key, "a number", req)
	if v == nil {
		return def
	}
	f, err := strconv.ParseFloat(v.scalar, 64)
	if err != nil {
		d.fail(v, path+"."+key, fmt.Sprintf("bad number %q", v.scalar))
		return def
	}
	return bounded(d, v, path+"."+key, f, lo, hi, def)
}

func (d *decoder) boolVal(n *yamlNode, path string, u used, key string, def bool) bool {
	v := d.scalar(n, path, u, key, "true or false", optional)
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
func (d *decoder) durVal(n *yamlNode, path string, u used, key string, def, lo, hi time.Duration, req bool) time.Duration {
	v := d.scalar(n, path, u, key, "a duration", req)
	if v == nil {
		return def
	}
	dur, err := time.ParseDuration(v.scalar)
	if err != nil {
		d.fail(v, path+"."+key, fmt.Sprintf("bad duration %q (use Go syntax: 30s, 1m30s)", v.scalar))
		return def
	}
	return bounded(d, v, path+"."+key, dur, lo, hi, def)
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
	name := d.str(n, path, u, key, "", required)
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
		Name:        d.str(root, path, u, "name", "", required),
		Description: d.str(root, path, u, "description", "", optional),
		Seed:        int64(d.intVal(root, path, u, "seed", 42, 0, 1<<31, optional)),
		Shards:      d.intVal(root, path, u, "shards", 1, 1, MaxShards, optional),
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
	spec := PlatformSpec{Config: core.DefaultConfig(core.KindRattrap), Replicas: 1}
	n := root.get("platform")
	if n == nil || d.err != nil {
		return spec
	}
	p := path + ".platform"
	if d.mapping(n, p) == nil {
		return spec
	}
	u := used{}
	kind := d.str(n, p, u, "kind", "rattrap", optional)
	k, ok := core.KindByName(kind)
	if !ok {
		d.fail(n.get("kind"), p+".kind", fmt.Sprintf("unknown platform kind %q (rattrap, rattrap-wo, vm)", kind))
	}
	switch preset := d.str(n, p, u, "preset", "paper", optional); preset {
	case "paper":
		spec.Config = core.DefaultConfig(k)
	case "serving":
		spec.Config = core.ServingConfig(k)
	default:
		d.fail(n.get("preset"), p+".preset", fmt.Sprintf("unknown preset %q (paper, serving)", preset))
	}
	spec.MaxRuntimes = d.intVal(n, p, u, "max_runtimes", 5, 1, 256, optional)
	spec.MinRuntimes = d.intVal(n, p, u, "min_runtimes", 0, 0, 256, optional)
	spec.IdleTimeout = d.durVal(n, p, u, "idle_timeout", 0, 0, MaxVirtual, optional)
	spec.Autoscale = d.boolVal(n, p, u, "autoscale", false)
	spec.Replicas = d.intVal(n, p, u, "replicas", 1, 1, MaxShards, optional)
	if d.err == nil && spec.MinRuntimes > spec.MaxRuntimes {
		d.fail(n, p, fmt.Sprintf("min_runtimes %d exceeds max_runtimes %d", spec.MinRuntimes, spec.MaxRuntimes))
	}
	// The floor is the autoscaler's; without it the key would be inert.
	if d.err == nil && n.get("min_runtimes") != nil && !spec.Autoscale {
		d.fail(n.get("min_runtimes"), p+".min_runtimes", "requires platform.autoscale: true")
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
	spec.MaxAttempts = d.intVal(n, p, u, "max_attempts", 1, 1, 16, optional)
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
	return mappings(d, n.items, path+".fleet", func(item *yamlNode, p string, u used) CohortSpec {
		c := CohortSpec{
			Name:              d.str(item, p, u, "cohort", "", required),
			Devices:           d.intVal(item, p, u, "devices", 0, 1, MaxCohortDevices, required),
			RequestsPerDevice: d.intVal(item, p, u, "requests_per_device", 1, 1, 1000, optional),
			Network:           d.network(item, p, u, "network"),
			Variants:          d.intVal(item, p, u, "variants", 1, 1, MaxVariants, optional),
			Start:             d.durVal(item, p, u, "start", 0, 0, MaxVirtual, optional),
			Duration:          d.durVal(item, p, u, "duration", 0, time.Millisecond, MaxVirtual, required),
			LinpackOrder:      d.intVal(item, p, u, "linpack_order", 0, 0, MaxLinpackOrder, optional),
			ChunkedPush:       d.boolVal(item, p, u, "chunked_push", false),
		}
		c.Apps = d.apps(item, p, u)
		switch arr := d.str(item, p, u, "arrival", "uniform", optional); arr {
		case "uniform":
			c.Arrival = ArrivalUniform
		case "poisson":
			c.Arrival = ArrivalPoisson
		default:
			d.fail(item.get("arrival"), p+".arrival", fmt.Sprintf("unknown arrival process %q (uniform, poisson)", arr))
		}
		return c
	})
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
	name := d.str(n, path, u, key, "", required)
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
	adds := 0 // add-shard events decoded so far: they extend the shard id space
	return mappings(d, d.list(root, path, ru, "events", MaxEvents), path+".events", func(item *yamlNode, p string, u used) EventSpec {
		ev := EventSpec{At: d.durVal(item, p, u, "at", 0, 0, MaxVirtual, required), Cohort: -1}
		ev.Kind = EventKind(d.str(item, p, u, "action", "", required))
		if d.err != nil {
			return ev
		}
		switch ev.Kind {
		case EvSetNetwork:
			ev.Cohort = d.cohortIndex(item, p, u, "cohort", scn)
			ev.Net = d.network(item, p, u, "network")
		case EvLoadSpike:
			ev.Cohort = d.cohortIndex(item, p, u, "cohort", scn)
			ev.Factor = d.floatVal(item, p, u, "factor", 0, 0.01, 1000, required)
			ev.Dur = d.durVal(item, p, u, "duration", 0, time.Millisecond, MaxVirtual, required)
		case EvFaultPlan:
			ev.Plan = d.str(item, p, u, "plan", "", required)
			if d.err == nil {
				if _, ok := planByName(ev.Plan, 0); !ok {
					d.fail(item.get("plan"), p+".plan", fmt.Sprintf("unknown fault plan %q (%s)", ev.Plan, strings.Join(PlanNames(), ", ")))
				}
			}
		case EvClearFaults:
		case EvAddShard:
			adds++
			if d.err == nil && scn.Shards+adds > MaxShards {
				d.fail(item, p, fmt.Sprintf("add-shard would exceed %d shards", MaxShards))
			}
		case EvKillShard, EvRemoveShard, EvFailShard:
			ev.Shard = d.intVal(item, p, u, "shard", 0, 0, MaxShards-1, optional)
			// Earlier add-shard events extend the addressable id space:
			// shard ids are assigned in event order, founding shards first.
			if d.err == nil && ev.Shard >= scn.Shards+adds {
				d.fail(item.get("shard"), p+".shard",
					fmt.Sprintf("shard %d out of range (%d founding + %d added)", ev.Shard, scn.Shards, adds))
			}
		case EvSetFloor:
			// Either bound may be left out, and is then the platform
			// block's; only the floor is the autoscaler's.
			hasMin := item.get("min_runtimes") != nil
			ev.HasMax = item.get("max_runtimes") != nil
			if !hasMin && !ev.HasMax {
				d.fail(item, p, "set-floor needs min_runtimes and/or max_runtimes")
			}
			ev.MaxRuntimes = d.intVal(item, p, u, "max_runtimes", scn.Platform.MaxRuntimes, 0, 256, optional)
			ev.Floor = d.intVal(item, p, u, "min_runtimes", scn.Platform.MinRuntimes, 0, 256, optional)
			if d.err == nil && hasMin && !scn.Platform.Autoscale {
				d.fail(item, p, "set-floor's min_runtimes requires platform.autoscale: true")
			}
			if d.err == nil && hasMin && ev.Floor > ev.MaxRuntimes {
				d.fail(item.get("min_runtimes"), p+".min_runtimes", fmt.Sprintf("floor %d exceeds max_runtimes %d", ev.Floor, ev.MaxRuntimes))
			}
		default:
			d.fail(item.get("action"), p+".action", fmt.Sprintf("unknown action %q", ev.Kind))
		}
		return ev
	})
}

func (d *decoder) assertions(root *yamlNode, path string, ru used, scn *Scenario) []AssertionSpec {
	return mappings(d, d.list(root, path, ru, "assertions", MaxAssertions), path+".assertions", func(item *yamlNode, p string, u used) AssertionSpec {
		a := AssertionSpec{Kind: AssertionKind(d.str(item, p, u, "type", "", required)), Cohort: -1}
		if d.err != nil {
			return a
		}
		def, ok := assertionDefs[a.Kind]
		if !ok {
			d.fail(item.get("type"), p+".type", fmt.Sprintf("unknown assertion type %q", a.Kind))
			return a
		}
		if def.after {
			a.After = d.durVal(item, p, u, "after", 0, 0, MaxVirtual, required)
		}
		switch def.shape {
		case shapeRate:
			a.Min, a.HasMin = d.floatVal(item, p, u, "min", 0, 0, 1, required), true
		case shapeLatency:
			a.MaxDur, a.HasMax = d.durVal(item, p, u, "max", 0, time.Microsecond, MaxVirtual, required), true
		case shapeCount:
			absent := -1 // below every count's range
			if def.sides == floorOnly {
				absent = scn.Platform.MinRuntimes
			}
			if m := d.intVal(item, p, u, "min", absent, def.lo, def.hi, def.sides == minOnly); m >= 0 {
				a.Min, a.HasMin = float64(m), true
			}
			if def.sides == minOrMax {
				if m := d.intVal(item, p, u, "max", -1, def.lo, def.hi, optional); m >= 0 {
					a.Max, a.HasMax = float64(m), true
				}
				if d.err == nil && !a.HasMin && !a.HasMax {
					d.fail(item, p, fmt.Sprintf("%s needs min and/or max", a.Kind))
				}
			}
		}
		if def.cohort && item.get("cohort") != nil {
			a.Cohort = d.cohortIndex(item, p, u, "cohort", scn)
		}
		return a
	})
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

// plans is every fault plan a scenario's fault-plan event can activate,
// at the given seed: healthy, the standard robustness suite, and the
// scenario-specific chaos plans.
func plans(seed int64) []faults.Plan {
	return append(append([]faults.Plan{faults.Healthy()}, faults.StandardPlans(seed)...),
		// Every other teardown fails at the guest layer: the repaired
		// StopRuntime must still reclaim every slot (zero capacity loss).
		faults.Plan{Name: "teardown-storm", Seed: seed, Rules: []faults.Rule{
			{Site: faults.SiteTeardown, Kind: faults.Drop, Every: 2},
		}},
		// One in five executions fails; success clears strikes, so only
		// genuinely sick runtimes reach the cordon threshold.
		faults.Plan{Name: "exec-flaky", Seed: seed, Rules: []faults.Rule{
			{Site: faults.SiteExec, Kind: faults.Drop, P: 0.2},
		}},
		// Every third block written into the warehouse's chunk store fails,
		// four times in all, whichever staging writes it: a device's delta
		// push, a replica's fan-out or a migration's copy. A three-block
		// Linpack copy then fails both its imports, so the entry stays
		// short until the cluster repairs again; the cap lets the repair
		// land. The target is the store's directory name, as only the
		// warehouse spells out its paths.
		faults.Plan{Name: "chunk-write-fail", Seed: seed, Rules: []faults.Rule{
			{Site: faults.SiteFSWrite, Target: "/chunks/", Kind: faults.Drop, Every: 3, MaxHits: 4},
		}},
	)
}

// PlanNames lists the fault plans a scenario's fault-plan event can
// activate.
func PlanNames() []string {
	var names []string
	for _, p := range plans(0) {
		names = append(names, p.Name)
	}
	return names
}

// planByName instantiates a named fault plan at the given seed.
func planByName(name string, seed int64) (faults.Plan, bool) {
	for _, p := range plans(seed) {
		if p.Name == name {
			return p, true
		}
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
