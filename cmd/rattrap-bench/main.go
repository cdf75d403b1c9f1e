// Command rattrap-bench regenerates every table and figure of the paper's
// evaluation from the simulated testbed. Without flags it runs everything;
// -fig / -table select individual artifacts; -out additionally writes each
// artifact as both a text table and a CSV file.
//
// Usage:
//
//	rattrap-bench [-seed N] [-fig 1|2|3|9|10|11|obs4] [-table 1|2] [-out dir]
//	rattrap-bench -throughput [-short] [-out dir] [-baseline BENCH_throughput.json]   # pipelined data-plane sweep with p50, req/s and allocs/op fences
//	rattrap-bench -cluster [-short] [-out dir]   # sharded-gateway scaling sweep (shards x devices)
//	rattrap-bench -faults [-seed N] [-out dir]   # fault-plan robustness sweep
//	rattrap-bench -stages [-seed N] [-out dir]   # per-stage latency breakdown (deterministic)
//	rattrap-bench -reshard [-short] [-out dir]   # live kill-one-add-one membership sweep with hard gates
//	rattrap-bench -scenario scenarios/baseline.yaml [-out dir]   # run one chaos scenario, assertions as exit status
//	rattrap-bench -scenario-validate scenarios   # parse-and-check scenario files without running
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rattrap/internal/experiments"
	"rattrap/internal/metrics"
)

func main() {
	seed := flag.Int64("seed", 42, "simulation seed (results are deterministic per seed)")
	fig := flag.String("fig", "", "figure to regenerate: 1, 2, 3, 9, 10, 11 or obs4")
	table := flag.String("table", "", "table to regenerate: 1 or 2")
	out := flag.String("out", "", "directory to also write .txt and .csv artifacts to")
	tp := flag.Bool("throughput", false, "sweep the pipelined data plane (devices x depth) and write BENCH_throughput.json")
	clu := flag.Bool("cluster", false, "sweep the sharded gateway (shards x devices) and write BENCH_cluster.json")
	short := flag.Bool("short", false, "with -throughput, -cluster or -autoscale: run the reduced CI sweep (fewer cells and requests)")
	baseline := flag.String("baseline", "", "with -throughput: fail on regression vs this baseline report (>3x p50, <0.5x req/s, allocs/op past x1.15+8)")
	flt := flag.Bool("faults", false, "sweep the standard fault plans and write BENCH_faults.json")
	stages := flag.Bool("stages", false, "emit the per-stage latency breakdown as BENCH_stages.json")
	boot := flag.Bool("boot", false, "measure cold vs template-clone boots and the warehouse delta push, write BENCH_boot.json")
	ascale := flag.Bool("autoscale", false, "race the elastic pool against fixed pools under bursty arrivals and write BENCH_autoscale.json")
	reshard := flag.Bool("reshard", false, "kill one shard and add another mid-sweep, gate availability/recovery/delta-migration, write BENCH_reshard.json")
	scen := flag.String("scenario", "", "run one YAML chaos scenario and write BENCH_scenario.json (exit 1 on failed assertions)")
	scenValidate := flag.String("scenario-validate", "", "parse and validate a scenario file or every *.yaml in a directory, without running")
	flag.Parse()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: %v\n", err)
			os.Exit(1)
		}
	}

	if *scenValidate != "" {
		if err := runScenarioValidate(*scenValidate); err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: scenario-validate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *scen != "" {
		if err := runScenario(*scen, *out); err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: scenario: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *tp {
		if err := runThroughputBench(*out, *baseline, *short); err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: throughput: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *clu {
		if err := runClusterBench(*out, *short); err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: cluster: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *ascale {
		if err := runAutoscaleBench(*seed, *out, *short); err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: autoscale: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *reshard {
		if err := runReshardBench(*seed, *out, *short); err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: reshard: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *stages {
		if err := runStagesBench(*seed, *out); err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: stages: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *boot {
		if err := runBootBench(*seed, *out); err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: boot: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *flt {
		if err := runFaultsBench(*seed, *out); err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: faults: %v\n", err)
			os.Exit(1)
		}
		return
	}

	all := *fig == "" && *table == ""
	emit := func(name string, fn func() ([]*metrics.Table, error)) {
		tabs, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rattrap-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		for _, tb := range tabs {
			fmt.Println(tb.Render())
			if *out == "" {
				continue
			}
			slug := tb.Slug()
			if err := os.WriteFile(filepath.Join(*out, slug+".txt"), []byte(tb.Render()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "rattrap-bench: writing %s: %v\n", slug, err)
				os.Exit(1)
			}
			if err := os.WriteFile(filepath.Join(*out, slug+".csv"), []byte(tb.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "rattrap-bench: writing %s: %v\n", slug, err)
				os.Exit(1)
			}
		}
	}

	var comparison *experiments.Comparison
	getComparison := func() (*experiments.Comparison, error) {
		if comparison == nil {
			c, err := experiments.RunComparison(*seed)
			if err != nil {
				return nil, err
			}
			comparison = c
		}
		return comparison, nil
	}

	if all || *fig == "1" {
		emit("figure 1", func() ([]*metrics.Table, error) {
			f, err := experiments.RunFigure1(*seed)
			if err != nil {
				return nil, err
			}
			return f.Tables(), nil
		})
	}
	if all || *fig == "2" {
		emit("figure 2", func() ([]*metrics.Table, error) {
			f, err := experiments.RunFigure2(*seed)
			if err != nil {
				return nil, err
			}
			return f.Tables(), nil
		})
	}
	if all || *fig == "3" {
		emit("figure 3", func() ([]*metrics.Table, error) {
			f, err := experiments.RunFigure3(*seed)
			if err != nil {
				return nil, err
			}
			return f.Tables(), nil
		})
	}
	if all || *fig == "obs4" {
		emit("observation 4", func() ([]*metrics.Table, error) {
			o, err := experiments.RunObservation4(*seed)
			if err != nil {
				return nil, err
			}
			return o.Tables(), nil
		})
	}
	if all || *table == "1" {
		emit("table I", func() ([]*metrics.Table, error) {
			t, err := experiments.RunTableI(*seed)
			if err != nil {
				return nil, err
			}
			return t.Tables(), nil
		})
	}
	if all || *fig == "9" {
		emit("figure 9", func() ([]*metrics.Table, error) {
			c, err := getComparison()
			if err != nil {
				return nil, err
			}
			return c.Figure9Tables(), nil
		})
	}
	if all || *table == "2" {
		emit("table II", func() ([]*metrics.Table, error) {
			c, err := getComparison()
			if err != nil {
				return nil, err
			}
			return c.TableIITables(), nil
		})
	}
	if all || *fig == "10" {
		emit("figure 10", func() ([]*metrics.Table, error) {
			f, err := experiments.RunFigure10(*seed)
			if err != nil {
				return nil, err
			}
			return f.Tables(), nil
		})
	}
	if all || *fig == "11" {
		emit("figure 11", func() ([]*metrics.Table, error) {
			f, err := experiments.RunFigure11(*seed)
			if err != nil {
				return nil, err
			}
			return f.Tables(), nil
		})
	}
}
