package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rattrap/internal/scenario"
)

// runScenario loads and runs one scenario file; its report becomes
// BENCH_scenario.json and its gate is the scenario's own assertions. The
// seed is the file's, and the run is all virtual time: internal/scenario's
// tests pin scenarios/baseline.yaml's report to the checked-in file.
func runScenario(w io.Writer, path string) (any, error) {
	scn, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	rep, err := scenario.Run(scn)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "scenario %q: %d arrivals, %.2f%% success, p50 %.1f ms, p99 %.1f ms over %.1fs virtual\n",
		rep.Scenario, rep.Totals.Arrivals, rep.Totals.SuccessRate*100,
		rep.Totals.P50Ms, rep.Totals.P99Ms, rep.VirtualSecs)
	for _, ev := range rep.Events {
		fmt.Fprintf(w, "  event @%8.0fms  %-12s %s\n", ev.AtMs, ev.Action, ev.Detail)
	}
	failed := 0
	for _, a := range rep.Assertions {
		verdict := "PASS"
		if !a.Pass {
			verdict = "FAIL"
			failed++
		}
		scope := ""
		if a.Cohort != "" {
			scope = " [" + a.Cohort + "]"
		}
		fmt.Fprintf(w, "  %s  %-18s%s want %s, got %s\n", verdict, a.Type, scope, a.Want, a.Got)
	}

	if failed > 0 {
		return rep, fmt.Errorf("%q: %d of %d assertions failed", rep.Scenario, failed, len(rep.Assertions))
	}
	return rep, nil
}

// runScenarioValidate parses and validates one scenario file, or every
// *.yaml under a directory, without running anything. A malformed
// checked-in scenario fails the build here rather than surprising the
// next person who runs it.
func runScenarioValidate(target string) error {
	info, err := os.Stat(target)
	if err != nil {
		return err
	}
	var files []string
	if info.IsDir() {
		entries, err := os.ReadDir(target)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".yaml") {
				files = append(files, filepath.Join(target, e.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			return fmt.Errorf("no .yaml scenarios under %s", target)
		}
	} else {
		files = []string{target}
	}
	bad := 0
	for _, f := range files {
		scn, err := scenario.Load(f)
		if err != nil {
			fmt.Printf("FAIL %s: %v\n", f, err)
			bad++
			continue
		}
		fmt.Printf("ok   %s: %q — %d cohorts, %d events, %d assertions\n",
			f, scn.Name, len(scn.Fleet), len(scn.Events), len(scn.Assertions))
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d scenario files failed validation", bad, len(files))
	}
	return nil
}
