package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rattrap/internal/scenario"
)

// goldenSeed is the seed every checked-in BENCH_*.json was generated at
// (the -seed default, so `make bench-<mode>` regenerates the same file).
const goldenSeed = 42

func init() { scenarioDir = filepath.Join("..", "..", "scenarios") }

// checkMode runs m once at goldenSeed and holds it to its gates and to
// want, the checked-in bytes of BENCH_<name>.json.
func checkMode(m mode, want []byte) error {
	rep, gate := m.run(io.Discard, goldenSeed)
	if gate != nil {
		return fmt.Errorf("-%s: %w", m.name, gate)
	}
	got, err := marshalReport(rep)
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return nil
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	n := 0
	for n < len(gotLines) && n < len(wantLines) && gotLines[n] == wantLines[n] {
		n++
	}
	line := func(lines []string) string {
		if n < len(lines) {
			return strings.TrimSpace(lines[n])
		}
		return "<end of file>"
	}
	return fmt.Errorf("BENCH_%s.json differs from what this commit generates, first at line %d: checked in %q, generated %q; "+
		"if the change is intended, regenerate with `make bench-%s` and review the diff",
		m.name, n+1, line(wantLines), line(gotLines), m.name)
}

// TestCheckedInReports walks the mode table the command dispatches on:
// every report is regenerated, gated and byte-compared with the file at the
// repository root. The reports are virtual time only, so a mismatch is a
// behaviour change (or nondeterminism), never noise.
func TestCheckedInReports(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+m.name+".json"))
			if err != nil {
				t.Fatalf("%v (generate it with `make bench-%s`)", err, m.name)
			}
			if err := checkMode(m, want); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCheckModeCatchesDrift pins what TestCheckedInReports relies on: one
// edited byte fails the comparison and the message names the regenerating
// command, and a failed gate fails a mode even when the bytes match.
func TestCheckModeCatchesDrift(t *testing.T) {
	m := mode{name: "fake", run: func(io.Writer, int64) (any, error) {
		return map[string]int{"boots": 6}, nil
	}}
	want := []byte("{\n  \"boots\": 6\n}\n")
	if err := checkMode(m, want); err != nil {
		t.Fatalf("matching report rejected: %v", err)
	}
	err := checkMode(m, bytes.Replace(want, []byte("6"), []byte("7"), 1))
	if err == nil || !strings.Contains(err.Error(), "make bench-fake") || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("edited golden: got %v, want a line-2 mismatch naming `make bench-fake`", err)
	}
	gate := errors.New("speedup below the floor")
	m.run = func(io.Writer, int64) (any, error) { return map[string]int{"boots": 6}, gate }
	if err := checkMode(m, want); !errors.Is(err, gate) {
		t.Errorf("failed gate: got %v, want it to wrap %v", err, gate)
	}
}

// TestSuiteGatesCatchRegressions breaks, one at a time, each property a
// suite gates on — in the report, the way the regression would show there —
// and requires the suite's verdict to fail. Every case stands for a
// behaviour a deleted hand-written runner or its tests used to pin.
func TestSuiteGatesCatchRegressions(t *testing.T) {
	clean := map[string][]byte{} // base file -> the suite's reports, as JSON
	for _, tc := range []struct {
		name    string
		s       suite
		variant string
		want    string // in the verdict
		breakIt func(*scenario.Report)
	}{
		{"healthy plan retried", faultsSuite, "healthy/retries", "healthy/retries: 1 retries", func(r *scenario.Report) { r.Totals.Retries = 1 }},
		{"fs hook unwired: slow-fs injects nothing", faultsSuite, "slow-fs/retries", "slow-fs/retries: no faults injected", func(r *scenario.Report) { r.Pool.InjectedFaults = 0 }},
		{"retries no longer hold", faultsSuite, "drop-uplink/retries", "drop-uplink/retries: retries held only", func(r *scenario.Report) { r.Totals.SuccessRate = 29.0 / 30 }},
		{"single attempt retried after all", faultsSuite, "flaky-boot/single-attempt", "flaky-boot/single-attempt: nothing lost", func(r *scenario.Report) { r.Totals.SuccessRate = 1 }},
		{"no download stall", faultsSuite, "stalled-device/single-attempt", "stalled-device/single-attempt: no download stalls", func(r *scenario.Report) { delete(r.Pool.FaultStats, "net.download:stall") }},
		{"slot stuck draining", faultsSuite, "flaky-connect/retries", "flaky-connect/retries: census", func(r *scenario.Report) { r.Pool.Shards[0].CensusOK = false }},
		{"elastic pool loses to fixed-2", autoscaleSuite, "auto", "does not beat fixed-2", func(r *scenario.Report) { r.Totals.P99Ms = 6000 }},
		{"teardown faults not injected", autoscaleSuite, "teardown", "saw no teardown failures", func(r *scenario.Report) { r.Pool.TeardownFailures = 0 }},
		{"capacity lost to teardown faults", autoscaleSuite, "teardown", "capacity lost", func(r *scenario.Report) { r.Pool.TotalRuntimes = teardownFloor - 1 }},
		{"p99 bound missed", reshardSuite, "live", "live: p99", func(r *scenario.Report) { r.Assertions[len(r.Assertions)-1].Pass = false }},
		{"membership did not converge", reshardSuite, "live", "did not move twice", func(r *scenario.Report) { r.Resharding.Epoch = 1 }},
		{"join moved nothing", reshardSuite, "live", "migrated nothing", func(r *scenario.Report) { r.Resharding.EntriesMoved = 0 }},
		{"join moved full bytes", reshardSuite, "live", "chunk dedup", func(r *scenario.Report) { r.Resharding.DeltaBytes = r.Resharding.FullBytes }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each suite runs once; every case breaks a fresh deep copy.
			if clean[tc.s.base] == nil {
				runs, err := tc.s.runAll(goldenSeed)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.s.judge(runs); err != nil {
					t.Fatalf("unbroken suite already fails: %v", err)
				}
				if clean[tc.s.base], err = json.Marshal(runs); err != nil {
					t.Fatal(err)
				}
			}
			var runs map[string]*scenario.Report
			if err := json.Unmarshal(clean[tc.s.base], &runs); err != nil {
				t.Fatal(err)
			}
			tc.breakIt(runs[tc.variant])
			if err := tc.s.judge(runs); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("broken %s: verdict %v, want one naming %q", tc.variant, err, tc.want)
			}
		})
	}
}
