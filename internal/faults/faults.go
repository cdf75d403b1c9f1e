// Package faults provides deterministic, seed-driven fault injection for
// the simulated testbed. A Plan is a named set of rules — drop, stall,
// disconnect, corrupt — matched against operation sites (network
// transfers, unionfs writes, container boots); an Injector instantiates
// the plan and is wired into the model through the small function hooks
// each package exposes (netsim.Link.SetFault, unionfs.Mount.SetFault,
// core.Platform.SetBootFault/SetTeardownFault/SetExecFault). The scenario
// runner is the one place that builds injectors and wires them: every hook
// it installs calls Apply on whichever plan the timeline has active.
//
// Determinism: an Injector draws all randomness from its own source,
// seeded by the plan. Because the discrete-event engine dispatches one
// event at a time, the sequence of Apply calls — and therefore every
// fault decision — is identical across runs with the same seed, and a
// fault plan produces bit-identical virtual-time results.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// Kind classifies a fault.
type Kind int

// The four fault kinds of the plan vocabulary.
const (
	// Drop loses an in-flight operation: the transfer is charged partial
	// airtime and the caller sees ErrDropped.
	Drop Kind = iota
	// Stall delays the operation without failing it (a radio fade, a
	// saturated disk); the caller just observes the extra latency.
	Stall
	// Disconnect severs the device's path mid-operation: the caller sees
	// ErrDisconnected and must reconnect before retrying.
	Disconnect
	// Corrupt delivers the operation damaged; the caller sees ErrCorrupt
	// and must resend the payload.
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Stall:
		return "stall"
	case Disconnect:
		return "disconnect"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Error is a fault surfaced to model code. It is transient by
// construction: every fault models a condition a retry can outlive.
type Error struct {
	Kind   Kind
	Site   string
	Target string
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: %s at %s (%s)", e.Kind, e.Site, e.Target)
}

// IsTransient reports whether err (anywhere in its chain) is an injected
// fault — the class of errors clients should retry with backoff.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Well-known operation sites. Rules match sites by prefix, so "net."
// covers all three network sites.
const (
	SiteConnect  = "net.connect"
	SiteUpload   = "net.upload"
	SiteDownload = "net.download"
	SiteFSWrite  = "fs.write"
	SiteBoot     = "boot"
	SiteExec     = "exec"
	SiteTeardown = "teardown"
)

// Rule injects one fault kind at matching operations. A rule fires either
// deterministically (Every: each Nth matching operation) or
// probabilistically (P per operation, drawn from the plan's seeded
// source). Exactly one of Every/P should be set.
type Rule struct {
	// Site is a prefix match on the operation site ("net." matches every
	// network operation; "" matches everything).
	Site string
	// Target, when non-empty, is a substring match on the operation
	// target (device name, path, or runtime ID).
	Target string
	// Kind is the fault to inject.
	Kind Kind
	// Every fires the rule on each Nth matching operation (1-based: the
	// Nth, 2Nth, ... matches fire). 0 means use P instead.
	Every int
	// P is the per-operation firing probability when Every is 0.
	P float64
	// After skips the first N matching operations entirely.
	After int
	// MaxHits stops the rule after it fired this many times (0 = no cap).
	MaxHits int
	// Stall is the injected delay for Kind == Stall.
	Stall time.Duration
}

func (r Rule) matches(site, target string) bool {
	if !strings.HasPrefix(site, r.Site) {
		return false
	}
	return r.Target == "" || strings.Contains(target, r.Target)
}

// Plan is a named, seeded set of fault rules.
type Plan struct {
	Name  string
	Seed  int64
	Rules []Rule
}

// Healthy is the empty plan: no faults.
func Healthy() Plan { return Plan{Name: "healthy"} }

// StandardPlans is the fault suite the bench harness sweeps: one plan
// per failure mode the robustness layer defends against. All plans share
// the given seed so a fixed-seed sweep is bit-identical across runs.
func StandardPlans(seed int64) []Plan {
	return []Plan{
		{Name: "drop-uplink", Seed: seed, Rules: []Rule{
			{Site: SiteUpload, Kind: Drop, Every: 7},
		}},
		{Name: "flaky-connect", Seed: seed, Rules: []Rule{
			{Site: SiteConnect, Kind: Disconnect, P: 0.2},
		}},
		{Name: "stalled-device", Seed: seed, Rules: []Rule{
			{Site: SiteDownload, Kind: Stall, Every: 4, Stall: 400 * time.Millisecond},
			{Site: SiteDownload, Kind: Drop, Every: 9},
		}},
		{Name: "flaky-boot", Seed: seed, Rules: []Rule{
			{Site: SiteBoot, Kind: Drop, Every: 2, MaxHits: 3},
		}},
		{Name: "slow-fs", Seed: seed, Rules: []Rule{
			{Site: SiteFSWrite, Kind: Stall, Every: 5, Stall: 150 * time.Millisecond},
		}},
	}
}

// Injector evaluates a plan. It is not safe for concurrent use; in the
// simulated testbed the engine serializes all model code, which is
// exactly what keeps decisions deterministic.
type Injector struct {
	plan  Plan
	rng   *rand.Rand
	seen  []int // matching-op count per rule
	fired []int // fire count per rule
	stats map[string]int
}

// New instantiates a plan.
func New(plan Plan) *Injector {
	return &Injector{
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		seen:  make([]int, len(plan.Rules)),
		fired: make([]int, len(plan.Rules)),
		stats: make(map[string]int),
	}
}

// Apply evaluates the plan at one operation. Stalls sleep p in virtual
// time and return nil; drop/disconnect/corrupt return a typed *Error
// (after charging a stall, if a stall rule also fired). The first
// erroring rule wins; rules are evaluated in plan order.
func (in *Injector) Apply(p *sim.Proc, site, target string, size host.Bytes) error {
	var failure *Error
	for i, r := range in.plan.Rules {
		if !r.matches(site, target) {
			continue
		}
		in.seen[i]++
		if in.seen[i] <= r.After {
			continue
		}
		if r.MaxHits > 0 && in.fired[i] >= r.MaxHits {
			continue
		}
		fire := false
		if r.Every > 0 {
			fire = (in.seen[i]-r.After)%r.Every == 0
		} else if r.P > 0 {
			fire = in.rng.Float64() < r.P
		}
		if !fire {
			continue
		}
		in.fired[i]++
		in.stats[site+":"+r.Kind.String()]++
		if r.Kind == Stall {
			if r.Stall > 0 && p != nil {
				p.Sleep(r.Stall)
			}
			continue
		}
		if failure == nil {
			failure = &Error{Kind: r.Kind, Site: site, Target: target}
		}
	}
	if failure != nil {
		return failure
	}
	return nil
}

// Stats returns fired-fault counts keyed "site:kind".
func (in *Injector) Stats() map[string]int {
	out := make(map[string]int, len(in.stats))
	for k, v := range in.stats {
		out[k] = v
	}
	return out
}
