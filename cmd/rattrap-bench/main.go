// Command rattrap-bench is the virtual-time half of the evaluation. Without
// flags it is the paper oracle: every table and figure of the paper's
// evaluation, regenerated from the simulated testbed. With a mode flag it
// writes one BENCH_<mode>.json report and exits non-zero if one of the
// mode's gates fails. Nothing here reads the wall clock, so every output is
// a function of the seed: `go test ./cmd/rattrap-bench` holds the reports
// against the checked-in files and ci.sh holds the oracle against
// testdata/oracle.golden. Wall-clock numbers come from benchmark/.
//
// Usage:
//
//	rattrap-bench [-seed N] [-fig 1|2|3|9|10|11|obs4] [-table 1|2] [-out dir]   # paper oracle; -out adds a .txt and a .csv per table
//	rattrap-bench -stages|-boot|-autoscale|-reshard|-faults [-seed N] [-out dir]   # one BENCH_<mode>.json, gates as exit status
//	rattrap-bench -scenario scenarios/baseline.yaml [-out dir]   # run one chaos scenario, assertions as exit status
//	rattrap-bench -scenario-validate scenarios   # parse-and-check scenario files without running
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rattrap/internal/experiments"
	"rattrap/internal/metrics"
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

// An artifact is one figure or table of the paper, selected by -fig or
// -table; the slice order is the order the oracle prints them in.
type artifact struct {
	fig, table, name string
	tables           func(seed int64) ([]*metrics.Table, error)
}

// tabled adapts an experiment whose result renders itself.
func tabled[R interface{ Tables() []*metrics.Table }](run func(int64) (R, error)) func(int64) ([]*metrics.Table, error) {
	return func(seed int64) ([]*metrics.Table, error) {
		r, err := run(seed)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	}
}

func artifacts() []artifact {
	// Figure 9 and Table II are two views of one comparison run.
	var comparison *experiments.Comparison
	compared := func(view func(*experiments.Comparison) []*metrics.Table) func(int64) ([]*metrics.Table, error) {
		return func(seed int64) ([]*metrics.Table, error) {
			if comparison == nil {
				c, err := experiments.RunComparison(seed)
				if err != nil {
					return nil, err
				}
				comparison = c
			}
			return view(comparison), nil
		}
	}
	return []artifact{
		{fig: "1", name: "figure 1", tables: tabled(experiments.RunFigure1)},
		{fig: "2", name: "figure 2", tables: tabled(experiments.RunFigure2)},
		{fig: "3", name: "figure 3", tables: tabled(experiments.RunFigure3)},
		{fig: "obs4", name: "observation 4", tables: tabled(experiments.RunObservation4)},
		{table: "1", name: "table I", tables: tabled(experiments.RunTableI)},
		{fig: "9", name: "figure 9", tables: compared((*experiments.Comparison).Figure9Tables)},
		{table: "2", name: "table II", tables: compared((*experiments.Comparison).TableIITables)},
		{fig: "10", name: "figure 10", tables: tabled(experiments.RunFigure10)},
		{fig: "11", name: "figure 11", tables: tabled(experiments.RunFigure11)},
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "rattrap-bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 42, "simulation seed (results are deterministic per seed)")
	fig := flag.String("fig", "", "figure to regenerate: 1, 2, 3, 9, 10, 11 or obs4")
	table := flag.String("table", "", "table to regenerate: 1 or 2")
	out := flag.String("out", "", "directory for BENCH_*.json (default: the working directory) and for a .txt and .csv per oracle table")
	selected := make([]*bool, len(modes))
	for i, m := range modes {
		selected[i] = flag.Bool(m.name, false, "write BENCH_"+m.name+".json: "+m.help)
	}
	scen := flag.String("scenario", "", "run one YAML chaos scenario and write BENCH_scenario.json (exit 1 on failed assertions)")
	scenValidate := flag.String("scenario-validate", "", "parse and validate a scenario file or every *.yaml in a directory, without running")
	flag.Parse()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	if *scenValidate != "" {
		return runScenarioValidate(*scenValidate)
	}
	if *scen != "" {
		rep, gate := runScenario(os.Stdout, *scen)
		return finish("scenario", rep, gate, *out)
	}
	ranMode := false
	for i, m := range modes {
		if !*selected[i] {
			continue
		}
		ranMode = true
		rep, gate := m.run(os.Stdout, *seed)
		if err := finish(m.name, rep, gate, *out); err != nil {
			return err
		}
	}
	if ranMode {
		return nil
	}

	all := *fig == "" && *table == ""
	for _, a := range artifacts() {
		if !(all || (a.fig != "" && a.fig == *fig) || (a.table != "" && a.table == *table)) {
			continue
		}
		tabs, err := a.tables(*seed)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		for _, tb := range tabs {
			text := tb.Render()
			fmt.Println(text)
			if *out == "" {
				continue
			}
			base := filepath.Join(*out, tb.Slug())
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
func finish(name string, rep any, gate error, dir string) error {
	if rep != nil {
		buf, err := marshalReport(rep)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(dir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("report in %s\n", path)
	}
	if gate != nil {
		return fmt.Errorf("%s: %w", name, gate)
	}
	return nil
}
