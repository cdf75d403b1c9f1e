package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the checked-in BENCH_scenario.json and testdata/reports.golden from the current output")

// reportsGolden holds one "name sha256" line per affordable checked-in
// scenario: the hash of its JSON report as reportBytes renders it. It was
// last re-pinned when the report gained the pool fields the rattrap-bench
// suites read, so a refactor that claims byte-identical scenario reports is
// held to it.
var reportsGolden = filepath.Join("testdata", "reports.golden")

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
// nondeterminism bug, not noise — and the report's hash to equal its
// line in testdata/reports.golden, so a report that moves between commits
// is a reviewable diff (`-update` rewrites the file). It also requires
// every checked-in scenario's own assertions to pass: the scenarios/
// directory is a gallery of green gates, not aspirations.
func TestScenarioDoubleRunIdentical(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checked-in scenarios: %v", err)
	}
	var mu sync.Mutex
	sums := map[string]string{} // this run's hashes, by scenario name
	golden := map[string]string{}
	if *updateGolden {
		// The parent's cleanup runs after every parallel subtest finished.
		t.Cleanup(func() {
			var lines []string
			for name, sum := range sums {
				lines = append(lines, name+" "+sum+"\n")
			}
			sort.Strings(lines)
			if err := os.WriteFile(reportsGolden, []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Error(err)
			}
		})
	} else {
		buf, err := os.ReadFile(reportsGolden)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
			name, sum, _ := strings.Cut(line, " ")
			golden[name] = sum
		}
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
			sum := fmt.Sprintf("%x", sha256.Sum256(a))
			if *updateGolden {
				mu.Lock()
				sums[scn.Name] = sum
				mu.Unlock()
			} else if sum != golden[scn.Name] {
				t.Errorf("%s report hashes to %s, %s says %q; rerun with -update if the change is intentional",
					scn.Name, sum, reportsGolden, golden[scn.Name])
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
