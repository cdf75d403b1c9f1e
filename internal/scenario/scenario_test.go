package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const minimalScenario = `name: mini
fleet:
  - cohort: a
    devices: 4
    network: lan-wifi
    duration: 1s
`

func TestDecodeDefaults(t *testing.T) {
	scn, err := Decode([]byte(minimalScenario))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if scn.Name != "mini" || scn.Seed != 42 || scn.Shards != 1 {
		t.Errorf("header: %+v", scn)
	}
	if scn.Platform.MaxRuntimes != 5 || scn.Platform.Autoscale {
		t.Errorf("platform defaults: %+v", scn.Platform)
	}
	if scn.Client.MaxAttempts != 1 || scn.Client.BaseDelay != 200*time.Millisecond || scn.Client.MaxDelay != 5*time.Second {
		t.Errorf("client defaults: %+v", scn.Client)
	}
	if len(scn.Fleet) != 1 {
		t.Fatalf("fleet: %+v", scn.Fleet)
	}
	c := scn.Fleet[0]
	if c.RequestsPerDevice != 1 || c.Variants != 1 || c.Arrival != ArrivalUniform {
		t.Errorf("cohort defaults: %+v", c)
	}
	if len(c.Apps) != 1 || c.Apps[0] != "Linpack" {
		t.Errorf("default app mix: %v", c.Apps)
	}
	if c.Network.Name != "LAN WiFi" {
		t.Errorf("default network: %q", c.Network.Name)
	}
}

func TestDecodeFullScenario(t *testing.T) {
	scn, err := Decode([]byte(`name: full
description: every knob
seed: 7
shards: 4
platform:
  kind: rattrap
  max_runtimes: 8
  min_runtimes: 1
  max_queue_depth: 16
  autoscale: true
  autoscale_interval: 100ms
client:
  max_attempts: 3
  base_delay: 50ms
  max_delay: 2s
fleet:
  - cohort: phones
    devices: 100
    requests_per_device: 2
    network: 4g
    apps: [OCR, Linpack]
    linpack_order: 48
    variants: 16
    arrival: poisson
    start: 1s
    duration: 30s
events:
  - at: 5s
    action: load-spike
    cohort: phones
    factor: 10
    duration: 2s
  - at: 8s
    action: kill-shard
    shard: 2
  - at: 10s
    action: fault-plan
    plan: drop-uplink
  - at: 12s
    action: set-network
    cohort: phones
    network: lan-wifi
  - at: 14s
    action: clear-faults
  - at: 16s
    action: set-floor
    min_runtimes: 4
assertions:
  - type: success-rate
    min: 0.9
    cohort: phones
  - type: p99
    max: 3s
  - type: census
  - type: final-pool
    min: 4
    max: 8
  - type: overloads
    max: 100
`))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if scn.Seed != 7 || scn.Shards != 4 {
		t.Errorf("header: seed %d shards %d", scn.Seed, scn.Shards)
	}
	c := scn.Fleet[0]
	if c.Arrival != ArrivalPoisson || c.Variants != 16 || c.LinpackOrder != 48 || c.Start != time.Second {
		t.Errorf("cohort: %+v", c)
	}
	if want := 200.0 / 30.0; c.Rate() < want-0.01 || c.Rate() > want+0.01 {
		t.Errorf("Rate() = %v, want %v", c.Rate(), want)
	}
	kinds := []EventKind{EvLoadSpike, EvKillShard, EvFaultPlan, EvSetNetwork, EvClearFaults, EvSetFloor}
	if len(scn.Events) != len(kinds) {
		t.Fatalf("events: %+v", scn.Events)
	}
	for i, k := range kinds {
		if scn.Events[i].Kind != k {
			t.Errorf("event[%d] = %v, want %v", i, scn.Events[i].Kind, k)
		}
	}
	if scn.Events[5].Floor != 4 {
		t.Errorf("set-floor floor = %d", scn.Events[5].Floor)
	}
	if len(scn.Assertions) != 5 {
		t.Fatalf("assertions: %+v", scn.Assertions)
	}
	if a := scn.Assertions[0]; a.Kind != AssertSuccessRate || a.Cohort != 0 || a.Min != 0.9 {
		t.Errorf("assertion[0]: %+v", a)
	}
	if a := scn.Assertions[1]; a.Kind != AssertP99 || a.MaxDur != 3*time.Second {
		t.Errorf("assertion[1]: %+v", a)
	}
	if a := scn.Assertions[4]; a.Kind != AssertOverloads || a.HasMin || !a.HasMax {
		t.Errorf("assertion[4]: %+v", a)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"missing-name", "fleet:\n  - cohort: a\n    devices: 1\n    duration: 1s\n", "scenario.name: required"},
		{"missing-fleet", "name: x\n", "scenario.fleet: required"},
		{"unknown-top-key", minimalScenario + "bogus: 1\n", "scenario.bogus: unknown key"},
		{"unknown-platform-key", "name: x\nplatform:\n  cores: 4\nfleet:\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n    duration: 1s\n", "platform.cores: unknown key"},
		{"unknown-cohort-key", "name: x\nfleet:\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n    duration: 1s\n    color: red\n", "fleet[0].color: unknown key"},
		{"bad-kind", "name: x\nplatform:\n  kind: bare-metal\nfleet:\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n    duration: 1s\n", "unknown platform kind"},
		{"devices-zero", "name: x\nfleet:\n  - cohort: a\n    devices: 0\n    network: lan-wifi\n    duration: 1s\n", "fleet[0].devices"},
		{"devices-over-cap", "name: x\nfleet:\n  - cohort: a\n    devices: 4000001\n    network: lan-wifi\n    duration: 1s\n", "fleet[0].devices"},
		{"missing-devices", "name: x\nfleet:\n  - cohort: a\n    network: lan-wifi\n    duration: 1s\n", "fleet[0].devices: required"},
		{"missing-duration", "name: x\nfleet:\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n", "fleet[0].duration: required"},
		{"bare-number-duration", "name: x\nfleet:\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n    duration: 10\n", "duration"},
		{"unknown-network", "name: x\nfleet:\n  - cohort: a\n    devices: 1\n    duration: 1s\n    network: 5g\n", "network"},
		{"unknown-app", "name: x\nfleet:\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n    duration: 1s\n    apps: [Doom]\n", `unknown app "Doom"`},
		{"bad-arrival", "name: x\nfleet:\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n    duration: 1s\n    arrival: burst\n", "unknown arrival process"},
		{"dup-cohort", "name: x\nfleet:\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n    duration: 1s\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n    duration: 1s\n", "duplicate cohort name"},
		{"min-over-max", "name: x\nplatform:\n  max_runtimes: 2\n  min_runtimes: 3\nfleet:\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n    duration: 1s\n", "min_runtimes 3 exceeds max_runtimes 2"},
		{"unknown-action", minimalScenario + "events:\n  - at: 1s\n    action: reboot\n", "unknown action"},
		{"unknown-plan", minimalScenario + "events:\n  - at: 1s\n    action: fault-plan\n    plan: gremlins\n", "unknown fault plan"},
		{"event-unknown-cohort", minimalScenario + "events:\n  - at: 1s\n    action: set-network\n    cohort: ghosts\n    network: 4g\n", `unknown cohort "ghosts"`},
		{"shard-out-of-range", minimalScenario + "events:\n  - at: 1s\n    action: kill-shard\n    shard: 3\n", "shard 3 out of range"},
		{"floor-without-autoscale", minimalScenario + "events:\n  - at: 1s\n    action: set-floor\n    min_runtimes: 2\n", "requires platform.autoscale"},
		{"unknown-assertion", minimalScenario + "assertions:\n  - type: vibes\n", "unknown assertion type"},
		{"success-rate-no-min", minimalScenario + "assertions:\n  - type: success-rate\n", "min: required"},
		{"success-rate-range", minimalScenario + "assertions:\n  - type: success-rate\n    min: 1.5\n", "min"},
		{"final-pool-empty", minimalScenario + "assertions:\n  - type: final-pool\n", "needs min and/or max"},
		{"horizon", "name: x\nfleet:\n  - cohort: a\n    devices: 1\n    network: lan-wifi\n    start: 47h\n    duration: 2h\n", "horizon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.src))
			if err == nil {
				t.Fatalf("want error, got nil")
			}
			var se *SchemaError
			if !errors.As(err, &se) {
				t.Fatalf("want *SchemaError, got %T: %v", err, err)
			}
			if !IsScenarioError(err) {
				t.Errorf("IsScenarioError = false for %v", err)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

func TestArrivalCapAcrossCohorts(t *testing.T) {
	// Each cohort is under the per-cohort cap, but together they exceed
	// the total-arrivals cap.
	var b strings.Builder
	b.WriteString("name: x\nfleet:\n")
	for i := 0; i < 5; i++ {
		b.WriteString("  - cohort: c")
		b.WriteByte(byte('0' + i))
		b.WriteString("\n    devices: 3500000\n    network: lan-wifi\n    duration: 1h\n")
	}
	_, err := Decode([]byte(b.String()))
	if err == nil || !strings.Contains(err.Error(), "total arrivals exceed") {
		t.Fatalf("want total-arrivals cap error, got %v", err)
	}
}

func TestPlanNamesAllResolve(t *testing.T) {
	for _, name := range PlanNames() {
		if _, ok := planByName(name, 42); !ok {
			t.Errorf("PlanNames lists %q but planByName cannot build it", name)
		}
	}
	if _, ok := planByName("no-such-plan", 42); ok {
		t.Error("planByName accepted an unknown name")
	}
}

// TestCheckedInScenariosValidate decodes every scenario shipped in
// scenarios/ — the same gate as rattrap-bench -scenario-validate — and
// pins the floor of twelve named scenarios.
func TestCheckedInScenariosValidate(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 12 {
		t.Fatalf("only %d checked-in scenarios, want at least 12", len(files))
	}
	names := map[string]bool{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		scn, err := Decode(data)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(scn.Assertions) == 0 {
			t.Errorf("%s: no assertions — a scenario with nothing to check gates nothing", f)
		}
		base := strings.TrimSuffix(filepath.Base(f), ".yaml")
		if scn.Name != base {
			t.Errorf("%s: name %q does not match the file name", f, scn.Name)
		}
		names[scn.Name] = true
	}
	if len(names) != len(files) {
		t.Errorf("scenario names are not unique: %d names over %d files", len(names), len(files))
	}
}

// TestRunTwoCohortProfiles runs a tiny two-cohort scenario end to end and
// checks that each cohort's declared network profile made it into the
// report, and every arrival was accounted for.
func TestRunTwoCohortProfiles(t *testing.T) {
	scn, err := Decode([]byte(`name: two-cohorts
fleet:
  - cohort: office
    devices: 6
    network: lan-wifi
    linpack_order: 24
    duration: 3s
  - cohort: cellular
    devices: 4
    network: 4g
    linpack_order: 24
    duration: 3s
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
	if rep.Totals.Arrivals != 10 || rep.Totals.Succeeded != 10 {
		t.Errorf("totals: %+v", rep.Totals)
	}
	if len(rep.Cohorts) != 2 {
		t.Fatalf("cohorts: %+v", rep.Cohorts)
	}
	if rep.Cohorts[0].Network != "LAN WiFi" || rep.Cohorts[1].Network != "4G" {
		t.Errorf("cohort networks: %q, %q", rep.Cohorts[0].Network, rep.Cohorts[1].Network)
	}
	if rep.Cohorts[0].Stats.Arrivals != 6 || rep.Cohorts[1].Stats.Arrivals != 4 {
		t.Errorf("per-cohort arrivals: %+v", rep.Cohorts)
	}
	// 4G connect+transfer dwarfs LAN WiFi; the per-cohort split must
	// reflect the profiles actually used.
	if rep.Cohorts[1].Stats.P50Ms <= rep.Cohorts[0].Stats.P50Ms {
		t.Errorf("4G cohort p50 %.1fms not above LAN p50 %.1fms",
			rep.Cohorts[1].Stats.P50Ms, rep.Cohorts[0].Stats.P50Ms)
	}
}

// TestSlowFSPlanReachesOffloadIO: a fault plan's fs.write rules reach the
// shared offloading-I/O mount, where OCR stages its input image. The runner
// used to wire boot, teardown, exec and link faults but not this one, so
// slow-fs validated and then injected nothing.
func TestSlowFSPlanReachesOffloadIO(t *testing.T) {
	scn, err := Decode([]byte(`name: slow-fs
fleet:
  - cohort: scanners
    devices: 10
    network: lan-wifi
    apps: [OCR]
    duration: 5s
events:
  - at: 0s
    action: fault-plan
    plan: slow-fs
`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(scn)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pool.InjectedFaults == 0 || rep.Pool.FaultStats["fs.write:stall"] == 0 {
		t.Fatalf("slow-fs injected %d faults, stats %v: want fs.write stalls", rep.Pool.InjectedFaults, rep.Pool.FaultStats)
	}
}
