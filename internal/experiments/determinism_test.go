package experiments

import (
	"fmt"
	"strings"
	"testing"

	"rattrap/internal/core"
	"rattrap/internal/netsim"
	"rattrap/internal/obs"
	"rattrap/internal/workload"
)

// goldenRun serializes a run — every record field, every span stage
// record in order, and the final registry counters — into one string.
// Two runs with the same seed must produce identical bytes.
func goldenRun(t *testing.T, seed int64) string {
	t.Helper()
	return goldenRunShards(t, seed, 0)
}

// goldenRunShards is goldenRun served through cfg.Shards (0 = bare
// Platform). TestOneShardClusterGolden pins shards=1 byte-identical to
// shards=0.
func goldenRunShards(t *testing.T, seed int64, shards int) string {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := DefaultRun(core.KindRattrap, netsim.LANWiFi(), workload.NameLinpack, seed)
	cfg.Spans = true
	cfg.Obs = reg
	cfg.Shards = shards
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, rec := range res.Records {
		fmt.Fprintf(&b, "%s/%s #%d start=%d end=%d ph=%+v off=%v err=%q energy=%.9f\n",
			rec.Device, rec.App, rec.Index, rec.Start, rec.End, rec.Phases,
			rec.Offloaded, rec.Err, rec.EnergyJ)
		for _, sr := range rec.Span.Stages() {
			fmt.Fprintf(&b, "  %s %d\n", sr.Stage, sr.Dur.Nanoseconds())
		}
	}
	snap := reg.Snapshot()
	fmt.Fprintf(&b, "counters=%v gauges=%v\n", snap.Counters, snap.Gauges)
	for _, name := range []string{
		"stage." + obs.StageQueueWait, "stage." + obs.StageBoot,
		"stage." + obs.StageCodeStage, "stage." + obs.StageWarehouseLoad,
		"stage." + obs.StageRun,
	} {
		h := snap.Histograms[name]
		// Stripe assignment in sharded histograms is random, but the merged
		// aggregates must still be deterministic.
		fmt.Fprintf(&b, "hist %s count=%d mean=%d max=%d\n", name, h.Count, h.MeanNs, h.MaxNs)
	}
	fmt.Fprintf(&b, "traffic=%+v warehouse=%d/%d\n", res.DeviceTraffic, res.WarehouseEntries, res.WarehouseHits)
	return b.String()
}

// TestRunDeterministicWithSpans: bit-identical output for the same seed,
// spans and registry included; a different seed must differ (the test
// would otherwise pass on constant output).
func TestRunDeterministicWithSpans(t *testing.T) {
	a := goldenRun(t, 42)
	b := goldenRun(t, 42)
	if a != b {
		t.Fatalf("two runs with seed 42 differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if c := goldenRun(t, 43); c == a {
		t.Fatal("seed 43 reproduced seed 42's output — golden serialization is not sensitive")
	}
}

// TestRunSpansReconcile: per request, the span's top-level stages must sum
// to exactly the phase total, and sub-stages must not exceed their parent.
func TestRunSpansReconcile(t *testing.T) {
	cfg := DefaultRun(core.KindRattrap, netsim.LANWiFi(), workload.NameLinpack, 7)
	cfg.Spans = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, rec := range res.Records {
		if !rec.Offloaded || rec.Err != "" {
			continue
		}
		if rec.Span == nil {
			t.Fatalf("%s #%d: offloaded without a span", rec.Device, rec.Index)
		}
		checked++
		if got, want := rec.Span.TopLevelTotal(), rec.Phases.Response(); got != want {
			t.Errorf("%s #%d: stage sum %v != phase total %v", rec.Device, rec.Index, got, want)
		}
		agg := rec.Span.ByStage()
		if got, want := agg[obs.StageConnect], rec.Phases.NetworkConnection; got != want {
			t.Errorf("%s #%d: connect %v != %v", rec.Device, rec.Index, got, want)
		}
		if got, want := agg[obs.StageTransfer], rec.Phases.DataTransfer; got != want {
			t.Errorf("%s #%d: transfer %v != %v", rec.Device, rec.Index, got, want)
		}
		if got, want := agg[obs.StagePrepare], rec.Phases.RuntimePreparation; got != want {
			t.Errorf("%s #%d: prepare %v != %v", rec.Device, rec.Index, got, want)
		}
		if got, want := agg[obs.StageExecute], rec.Phases.ComputationExecution; got != want {
			t.Errorf("%s #%d: execute %v != %v", rec.Device, rec.Index, got, want)
		}
		// Sub-stages nest inside their parent window.
		if sub := agg[obs.StageQueueWait] + agg[obs.StageBoot] + agg[obs.StageCodeStage]; sub > agg[obs.StagePrepare] {
			t.Errorf("%s #%d: prepare sub-stages %v exceed prepare %v", rec.Device, rec.Index, sub, agg[obs.StagePrepare])
		}
		if sub := agg[obs.StageWarehouseLoad] + agg[obs.StageRun]; sub > agg[obs.StageExecute] {
			t.Errorf("%s #%d: execute sub-stages %v exceed execute %v", rec.Device, rec.Index, sub, agg[obs.StageExecute])
		}
	}
	if checked == 0 {
		t.Fatal("no successful offloaded records to check")
	}
}

// TestRunSpansDisabledByDefault: without cfg.Spans the records carry no
// spans (and no span allocation happened on the hot path).
func TestRunSpansDisabledByDefault(t *testing.T) {
	res, err := Run(DefaultRun(core.KindRattrap, netsim.LANWiFi(), workload.NameLinpack, 42))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Span != nil {
			t.Fatalf("%s #%d: span present with Spans=false", rec.Device, rec.Index)
		}
	}
}
