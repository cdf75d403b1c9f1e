package experiments

import (
	"reflect"
	"testing"

	"rattrap/internal/core"
	"rattrap/internal/faults"
	"rattrap/internal/netsim"
	"rattrap/internal/workload"
)

// TestFaultRunDeterministic pins the acceptance criterion that a fixed-
// seed fault plan produces bit-identical results across runs.
func TestFaultRunDeterministic(t *testing.T) {
	cfg := DefaultRun(core.KindRattrap, netsim.WANWiFi(), workload.NameChess, 42)
	for _, plan := range faults.StandardPlans(42) {
		run := func() *FaultRunResult {
			r, err := RunFaults(cfg, plan, true)
			if err != nil {
				t.Fatalf("%s: %v", plan.Name, err)
			}
			return r
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("plan %s not deterministic:\n  %+v\n  %+v", plan.Name, a, b)
		}
	}
}

// TestHealthyPlanIsLossless pins the baseline: no plan rules, no faults,
// every request succeeds in one attempt.
func TestHealthyPlanIsLossless(t *testing.T) {
	cfg := DefaultRun(core.KindRattrap, netsim.LANWiFi(), workload.NameChess, 7)
	r, err := RunFaults(cfg, faults.Healthy(), true)
	if err != nil {
		t.Fatal(err)
	}
	if r.SuccessRate != 1 || r.Injected != 0 {
		t.Fatalf("healthy run: %+v", r)
	}
	if r.Attempts != r.Requests {
		t.Fatalf("healthy run retried: %d attempts for %d requests", r.Attempts, r.Requests)
	}
}

// TestRetriesRecoverInjectedLoss pins the headline robustness claim:
// under a lossy plan, single-attempt clients measurably fail while
// retrying clients recover to (near-)full success.
func TestRetriesRecoverInjectedLoss(t *testing.T) {
	cfg := DefaultRun(core.KindRattrap, netsim.WANWiFi(), workload.NameChess, 11)
	cfg.RequestsPerDevice = 6
	plan := faults.Plan{Name: "drop-uplink", Seed: 11, Rules: []faults.Rule{
		{Site: faults.SiteUpload, Kind: faults.Drop, Every: 5},
	}}

	bare, err := RunFaults(cfg, plan, false)
	if err != nil {
		t.Fatal(err)
	}
	if bare.SuccessRate >= 1 {
		t.Fatalf("plan injected no loss without retries: %+v", bare)
	}
	if bare.Attempts != bare.Requests {
		t.Fatalf("retry disabled but attempts %d != requests %d", bare.Attempts, bare.Requests)
	}

	robust, err := RunFaults(cfg, plan, true)
	if err != nil {
		t.Fatal(err)
	}
	if robust.SuccessRate < 0.99 {
		t.Fatalf("retries should recover ≥99%%: %+v", robust)
	}
	if robust.Attempts <= robust.Requests {
		t.Fatalf("recovery without extra attempts is impossible: %+v", robust)
	}
	if robust.Injected == 0 {
		t.Fatal("plan fired no faults in the retry run")
	}
}

// TestStalledDevicePlanReleasesSlots pins that the stalled-device plan
// completes: stalls delay but never wedge, and the dispatcher's slots all
// come back (RunFaults errors on deadlocked procs, so success implies
// every slot was reclaimed within the run).
func TestStalledDevicePlanReleasesSlots(t *testing.T) {
	cfg := DefaultRun(core.KindRattrap, netsim.FourG(), workload.NameChess, 5)
	var plan faults.Plan
	for _, p := range faults.StandardPlans(5) {
		if p.Name == "stalled-device" {
			plan = p
		}
	}
	if plan.Name == "" {
		t.Fatal("stalled-device plan missing from the standard suite")
	}
	r, err := RunFaults(cfg, plan, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.SuccessRate < 0.99 {
		t.Fatalf("stalled-device with retries: %+v", r)
	}
	if r.FaultStats["net.download:stall"] == 0 {
		t.Fatalf("no stalls fired: %+v", r.FaultStats)
	}
}
