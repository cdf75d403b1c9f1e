package experiments

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"rattrap/internal/faults"
	"rattrap/internal/netsim"
	"rattrap/internal/scenario"
	"rattrap/internal/workload"
)

// The fault plans have one runner: a scenario. These tests ask of it what
// the deleted RunFaults was asked, on the robustness sweep's fleet
// (scenarios/fault-sweep.yaml) at the seeds, networks and apps the old
// tests used — so the suite gates `rattrap-bench -faults` pins at seed 42
// on WAN WiFi are also held off that one point.

// faultSweep runs fault-sweep.yaml at seed on profile with apps, under the
// named plan (activated at t=0), with one attempt per request or with the
// file's retries.
func faultSweep(t *testing.T, seed int64, profile netsim.Profile, apps []string, plan string, retries bool) *scenario.Report {
	t.Helper()
	scn, err := scenario.Load(filepath.Join("..", "..", "scenarios", "fault-sweep.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	scn.Seed = seed
	for i := range scn.Fleet {
		scn.Fleet[i].Network, scn.Fleet[i].Apps = profile, apps
	}
	if !retries {
		scn.Client.MaxAttempts = 1
	}
	ev := scenario.EventSpec{Kind: scenario.EvFaultPlan, Plan: plan, Cohort: -1}
	scn.Events = append([]scenario.EventSpec{ev}, scn.Events...)
	rep, err := scenario.Run(scn)
	if err != nil {
		t.Fatalf("%s: %v", plan, err)
	}
	for _, sp := range rep.Pool.Shards {
		if !sp.CensusOK {
			t.Fatalf("%s: slots not reclaimed: %+v", plan, sp)
		}
	}
	return rep
}

// TestFaultRunDeterministic pins the acceptance criterion that a fixed-
// seed fault plan produces bit-identical results across runs.
func TestFaultRunDeterministic(t *testing.T) {
	apps := []string{workload.NameChess}
	for _, plan := range faults.StandardPlans(42) {
		a := faultSweep(t, 42, netsim.WANWiFi(), apps, plan.Name, true)
		b := faultSweep(t, 42, netsim.WANWiFi(), apps, plan.Name, true)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("plan %s not deterministic:\n  %+v\n  %+v", plan.Name, a, b)
		}
	}
}

// TestRunFaultsDeterministic: the fault-injected run — where retries,
// backoff jitter, and injected failures all draw randomness — must also be
// bit-identical per seed, plan by plan and with or without retries, on
// Linpack and on OCR, whose image write is where slow-fs strikes.
func TestRunFaultsDeterministic(t *testing.T) {
	apps := []string{workload.NameLinpack, workload.NameOCR}
	for _, plan := range faults.StandardPlans(42) {
		for _, retries := range []bool{false, true} {
			a, err := json.Marshal(faultSweep(t, 42, netsim.WANWiFi(), apps, plan.Name, retries))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(faultSweep(t, 42, netsim.WANWiFi(), apps, plan.Name, retries))
			if !bytes.Equal(a, b) {
				t.Errorf("plan %s (retries %v): two runs differ:\n%s\n%s", plan.Name, retries, a, b)
			}
		}
	}
}

// TestHealthyPlanIsLossless pins the baseline: no plan rules, no faults,
// every request succeeds in one attempt.
func TestHealthyPlanIsLossless(t *testing.T) {
	r := faultSweep(t, 7, netsim.LANWiFi(), []string{workload.NameChess}, "healthy", true)
	if r.Totals.SuccessRate != 1 || r.Pool.InjectedFaults != 0 {
		t.Fatalf("healthy run: %+v, %d faults", r.Totals, r.Pool.InjectedFaults)
	}
	if r.Totals.Retries != 0 {
		t.Fatalf("healthy run retried %d times for %d requests", r.Totals.Retries, r.Totals.Arrivals)
	}
}

// TestRetriesRecoverInjectedLoss pins the headline robustness claim:
// under a lossy plan, single-attempt clients measurably fail while
// retrying clients recover to (near-)full success.
func TestRetriesRecoverInjectedLoss(t *testing.T) {
	apps := []string{workload.NameChess}
	bare := faultSweep(t, 11, netsim.WANWiFi(), apps, "drop-uplink", false)
	if bare.Totals.SuccessRate >= 1 {
		t.Fatalf("plan injected no loss without retries: %+v", bare.Totals)
	}
	if bare.Totals.Retries != 0 {
		t.Fatalf("retry disabled but %d retries", bare.Totals.Retries)
	}

	robust := faultSweep(t, 11, netsim.WANWiFi(), apps, "drop-uplink", true)
	if robust.Totals.SuccessRate < 0.99 {
		t.Fatalf("retries should recover ≥99%%: %+v", robust.Totals)
	}
	if robust.Totals.Retries == 0 {
		t.Fatalf("recovery without extra attempts is impossible: %+v", robust.Totals)
	}
	if robust.Pool.InjectedFaults == 0 {
		t.Fatal("plan fired no faults in the retry run")
	}
}

// TestStalledDevicePlanReleasesSlots pins that the stalled-device plan
// completes: stalls delay but never wedge, and the dispatcher's slots all
// come back (faultSweep fails a run whose census finds a slot not idle).
func TestStalledDevicePlanReleasesSlots(t *testing.T) {
	r := faultSweep(t, 5, netsim.FourG(), []string{workload.NameChess}, "stalled-device", true)
	if r.Totals.SuccessRate < 0.99 {
		t.Fatalf("stalled-device with retries: %+v", r.Totals)
	}
	if r.Pool.FaultStats["net.download:stall"] == 0 {
		t.Fatalf("no stalls fired: %+v", r.Pool.FaultStats)
	}
}
