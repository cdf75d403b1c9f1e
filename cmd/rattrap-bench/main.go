// Command rattrap-bench is the virtual-time half of the evaluation. Without
// flags it is the paper oracle: every table and figure of the paper's
// evaluation, regenerated from the simulated testbed
// (experiments.RunOracle, each run made once). -claims renders
// EXPERIMENTS.md from experiments.Claims measured over the same oracle and
// exits non-zero if a claim leaves its band. With a mode flag it writes one
// BENCH_<mode>.json report and exits non-zero if one of the mode's gates
// fails. Nothing here reads the wall clock, so every output is a function of
// the seed: `go test ./cmd/rattrap-bench` holds the claims, the reports,
// EXPERIMENTS.md and testdata/oracle.golden against what the commit
// generates at seed 42. Wall-clock numbers come from benchmark/.
//
// Usage:
//
//	rattrap-bench [-seed N] [-fig 1|2|3|9|10|11|obs4] [-table 1|2] [-out dir]   # paper oracle; -out adds a .txt and a .csv per table
//	rattrap-bench -claims [-seed N] > EXPERIMENTS.md   # the paper's claims against the oracle, failures as exit status
//	rattrap-bench -stages|-boot|-autoscale|-reshard|-faults [-seed N] [-out dir]   # one BENCH_<mode>.json, gates as exit status
//	rattrap-bench -scenario scenarios/baseline.yaml [-out dir]   # run one chaos scenario, assertions as exit status; BENCH_scenario.json only under -out
//	rattrap-bench -scenario-validate scenarios   # parse-and-check scenario files without running
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"rattrap/internal/experiments"
)

// A mode is one JSON report. run builds it at a seed, prints its human
// summary to w and returns it with the first gate it fails; a report that
// fails a gate is still returned, so the file is there to inspect.
type mode struct {
	name, help string
	run        func(w io.Writer, seed int64) (report any, gate error)
}

var modes = []mode{
	{"stages", "per-stage latency breakdown of the paper's standard run; stage sums must reconcile with end-to-end", runStages},
	{"boot", "cold boot vs template clone vs warehouse delta push; clones >=10x faster, family delta <30% of the full push", runBoot},
	{"autoscale", "scenarios/autoscale-bursts.yaml as a suite: elastic pool vs fixed pools; must win on p99 and lose no capacity to teardown faults", autoscaleSuite.run},
	{"reshard", "scenarios/reshard-live.yaml as a suite: kill one shard and add another mid-run; gates availability, p99 and delta migration", reshardSuite.run},
	{"faults", "scenarios/fault-sweep.yaml as a suite: every standard fault plan, single attempt vs retries", faultsSuite.run},
}

// selectArtefacts returns the artefacts -fig and -table name, every one
// when both are empty, and an error listing the valid names for a name
// that is not one.
func selectArtefacts(fig, table string) ([]experiments.Artefact, error) {
	var out []experiments.Artefact
	var figs, tables []string
	for _, a := range experiments.Artefacts {
		if a.Fig != "" {
			figs = append(figs, a.Fig)
		}
		if a.Table != "" {
			tables = append(tables, a.Table)
		}
		if (fig == "" && table == "") || (fig != "" && a.Fig == fig) || (table != "" && a.Table == table) {
			out = append(out, a)
		}
	}
	if fig != "" && !slices.Contains(figs, fig) {
		return nil, fmt.Errorf("-fig %s: no such figure (one of %s)", fig, strings.Join(figs, ", "))
	}
	if table != "" && !slices.Contains(tables, table) {
		return nil, fmt.Errorf("-table %s: no such table (one of %s)", table, strings.Join(tables, ", "))
	}
	return out, nil
}

// printOracle writes the artefacts' tables to w, and a .txt and a .csv
// per table under dir unless dir is empty.
func printOracle(w io.Writer, o *experiments.Oracle, as []experiments.Artefact, dir string) error {
	for _, a := range as {
		for _, tb := range a.Tables(o) {
			text := tb.Render()
			fmt.Fprintln(w, text)
			if dir == "" {
				continue
			}
			base := filepath.Join(dir, tb.Slug())
			if err := os.WriteFile(base+".txt", []byte(text), 0o644); err != nil {
				return err
			}
			if err := os.WriteFile(base+".csv", []byte(tb.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rattrap-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rattrap-bench", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "simulation seed (results are deterministic per seed)")
	fig := fs.String("fig", "", "figure to regenerate: 1, 2, 3, 9, 10, 11 or obs4")
	table := fs.String("table", "", "table to regenerate: 1 or 2")
	claims := fs.Bool("claims", false, "render EXPERIMENTS.md: the paper's claims measured over the oracle (exit 1 if one leaves its band)")
	out := fs.String("out", "", "directory for BENCH_*.json (default: the working directory) and for a .txt and .csv per oracle table")
	selected := make([]*bool, len(modes))
	for i, m := range modes {
		selected[i] = fs.Bool(m.name, false, "write BENCH_"+m.name+".json: "+m.help)
	}
	scen := fs.String("scenario", "", "run one YAML chaos scenario (exit 1 on failed assertions); with -out, write its BENCH_scenario.json there")
	scenValidate := fs.String("scenario-validate", "", "parse and validate a scenario file or every *.yaml in a directory, without running")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	if *scenValidate != "" {
		return runScenarioValidate(w, *scenValidate)
	}
	if *scen != "" {
		rep, gate := runScenario(w, *scen)
		if *out == "" {
			// Replaying a file writes no report: the BENCH_scenario.json in
			// the working directory is the pinned baseline's.
			rep = nil
		}
		return finish(w, "scenario", rep, gate, *out)
	}
	ranMode := false
	for i, m := range modes {
		if !*selected[i] {
			continue
		}
		ranMode = true
		rep, gate := m.run(w, *seed)
		if err := finish(w, m.name, rep, gate, *out); err != nil {
			return err
		}
	}
	if ranMode {
		return nil
	}

	as, err := selectArtefacts(*fig, *table)
	if err != nil {
		return err
	}
	o, err := experiments.RunOracle(*seed)
	if err != nil {
		return err
	}
	if *claims {
		fmt.Fprint(w, experiments.RenderClaims(o))
		return experiments.Check(o, experiments.Claims)
	}
	return printOracle(w, o, as, *out)
}

// marshalReport is the one encoding of every BENCH_*.json.
func marshalReport(rep any) ([]byte, error) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// finish writes a mode's report, when it produced one, to
// BENCH_<name>.json under dir (the working directory when dir is empty)
// and returns the mode's gate error.
func finish(w io.Writer, name string, rep any, gate error, dir string) error {
	if rep != nil {
		buf, err := marshalReport(rep)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(dir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "report in %s\n", path)
	}
	if gate != nil {
		return fmt.Errorf("%s: %w", name, gate)
	}
	return nil
}
