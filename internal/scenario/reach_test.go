package scenario

import (
	"fmt"
	"testing"

	"rattrap/internal/faults"
)

// reachFleet is a fleet that passes through every fault site: WAN-WiFi
// devices connect, upload and download; OCR stages its input image through
// the offloading-I/O mount (fs.write); every request executes (exec); and
// with a 500 ms idle timeout the pool boots and reaps runtimes all run long
// (boot, teardown).
const reachFleet = `name: reach
seed: 42
shards: 1
platform:
  kind: rattrap
  max_runtimes: 3
  idle_timeout: 500ms
client:
  max_attempts: 8
fleet:
  - cohort: phones
    devices: 12
    requests_per_device: 4
    network: wan-wifi
    apps: [OCR, Linpack]
    linpack_order: 24
    arrival: uniform
    duration: 30s
`

// TestEveryFaultSiteIsReachable runs every named fault plan over a fleet
// that touches every site and requires each rule of the plan to have fired:
// a plan whose hook is not wired validates and then injects nothing, as
// slow-fs did for seventeen PRs. Together the plans must cover all seven
// faults.Site* operations, so a site no plan can reach fails here too.
func TestEveryFaultSiteIsReachable(t *testing.T) {
	sites := map[string]bool{
		faults.SiteConnect: false, faults.SiteUpload: false, faults.SiteDownload: false,
		faults.SiteFSWrite: false, faults.SiteBoot: false, faults.SiteExec: false, faults.SiteTeardown: false,
	}
	for _, name := range PlanNames() {
		t.Run(name, func(t *testing.T) {
			scn, err := Decode([]byte(reachFleet + fmt.Sprintf("events:\n  - at: 0s\n    action: fault-plan\n    plan: %s\n", name)))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(scn)
			if err != nil {
				t.Fatal(err)
			}
			plan, _ := planByName(name, scn.Seed)
			if len(plan.Rules) == 0 && rep.Pool.InjectedFaults != 0 {
				t.Errorf("%s has no rules but injected %d faults: %v", name, rep.Pool.InjectedFaults, rep.Pool.FaultStats)
			}
			for _, rule := range plan.Rules {
				key := rule.Site + ":" + rule.Kind.String()
				if rep.Pool.FaultStats[key] == 0 {
					t.Errorf("%s: rule %s never fired (fault_stats %v)", name, key, rep.Pool.FaultStats)
					continue
				}
				if _, ok := sites[rule.Site]; !ok {
					t.Errorf("%s: rule site %q is not one of faults.Site*", name, rule.Site)
				}
				sites[rule.Site] = true
			}
		})
	}
	for site, reached := range sites {
		if !reached {
			t.Errorf("no named fault plan injects at %s", site)
		}
	}
}

// TestShardFailureMidFlightIsRetried fails a shard while requests routed
// to it are between Prepare and Execute — every request carries code of
// its own, so each one uploads it over 4G for a few hundred milliseconds
// inside its session — or parked in the wait ring of the shard's single
// runtime. Those requests see ErrShardDown; the device must retry them onto
// the surviving shards, so the run ends with retries and every request
// served. Nothing else in the run is retryable: no fault plan, no admission
// bound.
func TestShardFailureMidFlightIsRetried(t *testing.T) {
	scn, err := Decode([]byte(`name: shard-fail-inflight
seed: 42
shards: 3
platform:
  kind: rattrap
  max_runtimes: 1
client:
  max_attempts: 6
fleet:
  - cohort: cells
    devices: 600
    requests_per_device: 1
    network: 4g
    apps: [Linpack]
    linpack_order: 24
    variants: 600
    arrival: uniform
    duration: 10s
events:
  - at: 5s
    action: fail-shard
    shard: 1
assertions:
  - type: success-rate
    min: 1.0
  - type: census
`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(scn)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("assertions failed: %+v", rep.Assertions)
	}
	if rep.Totals.Overloads != 0 || rep.Pool.InjectedFaults != 0 {
		t.Fatalf("%d overloads and %d injected faults: the retries would not all be ErrShardDown", rep.Totals.Overloads, rep.Pool.InjectedFaults)
	}
	if rep.Totals.Retries == 0 {
		t.Fatalf("no request was retried after shard 1 failed (totals %+v): the failure met no in-flight session", rep.Totals)
	}
	t.Logf("%d retries, %d of %d served", rep.Totals.Retries, rep.Totals.Succeeded, rep.Totals.Arrivals)
	if rep.Resharding == nil || rep.Resharding.Failures != 1 {
		t.Fatalf("resharding report %+v: want exactly one shard failure", rep.Resharding)
	}
}
