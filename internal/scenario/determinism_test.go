package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the checked-in BENCH_scenario.json from the current output")

// soakThreshold keeps the double-run sweep affordable: scenarios whose
// declared arrival count exceeds it (the million-device soak) are run by
// `rattrap-bench -scenario`, not doubled inside go test.
const soakThreshold = 50_000

func reportBytes(t *testing.T, scn *Scenario) (*Report, []byte) {
	t.Helper()
	rep, err := Run(scn)
	if err != nil {
		t.Fatalf("Run(%s): %v", scn.Name, err)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return rep, append(buf, '\n')
}

func arrivals(scn *Scenario) int {
	total := 0
	for _, c := range scn.Fleet {
		total += c.Devices * c.RequestsPerDevice
	}
	return total
}

// TestScenarioDoubleRunIdentical runs every affordable checked-in
// scenario twice at its declared seed and requires byte-identical
// reports — the whole run is virtual time, so any divergence is a
// nondeterminism bug, not noise. It also requires every checked-in
// scenario's own assertions to pass: the scenarios/ directory is a
// gallery of green gates, not aspirations.
func TestScenarioDoubleRunIdentical(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checked-in scenarios: %v", err)
	}
	for _, file := range files {
		scn, err := Load(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if arrivals(scn) > soakThreshold {
			continue
		}
		t.Run(scn.Name, func(t *testing.T) {
			t.Parallel()
			scnB, _ := Load(file)
			rep, a := reportBytes(t, scn)
			_, b := reportBytes(t, scnB)
			if !bytes.Equal(a, b) {
				t.Errorf("two same-seed runs of %s differ (%d vs %d bytes)", scn.Name, len(a), len(b))
			}
			if !rep.Pass {
				for _, as := range rep.Assertions {
					if !as.Pass {
						t.Errorf("%s: assertion %s failed: want %s, got %s", scn.Name, as.Type, as.Want, as.Got)
					}
				}
			}
		})
	}
}

// TestBaselineReportGolden pins the baseline scenario's full report
// against the checked-in BENCH_scenario.json, the file `make
// bench-scenario` writes. Any intentional change to the runner, the
// platform stack, or the report schema shows up as a reviewable golden
// diff (regenerate with `go test ./internal/scenario -run Golden -update`).
func TestBaselineReportGolden(t *testing.T) {
	scn, err := Load(filepath.Join("..", "..", "scenarios", "baseline.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	_, got := reportBytes(t, scn)
	golden := filepath.Join("..", "..", "BENCH_scenario.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("baseline report drifted from %s (%d vs %d bytes); rerun with -update if the change is intentional",
			golden, len(got), len(want))
	}
}
