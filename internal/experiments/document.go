package experiments

import (
	"fmt"
	"strings"

	"rattrap/internal/metrics"
)

// An Artefact is one table or figure of the paper's evaluation: the
// tables `rattrap-bench -fig Fig` or `-table Table` prints, and, in
// EXPERIMENTS.md, the Claims rows naming it.
type Artefact struct {
	Name, Title string
	Fig, Table  string
	Intro       string
	Tables      func(*Oracle) []*metrics.Table
}

// Artefacts lists the paper's evaluation in the order `rattrap-bench` and
// EXPERIMENTS.md show it.
var Artefacts = []Artefact{
	{"Figure 1", "phase details, first 20 requests on the VM cloud", "1", "",
		"The first 20 offloading requests per workload against the VM cloud over LAN WiFi. The paper: every VM's first request is an offloading failure caused by ~28 s of runtime preparation, and later requests succeed. A request is cold here when its preparation exceeds 20 s.",
		func(o *Oracle) []*metrics.Table { return o.VMs.Figure1Tables() }},
	{"Figure 2", "server load timelines", "2", "",
		"Server CPU and disk I/O per second during the Figure 1 runs. The paper: the first 30 s show the same boot load for every workload; after boot, CPU spikes per request and OCR and VirusScan add I/O bursts.",
		func(o *Oracle) []*metrics.Table { return o.VMs.Figure2Tables() }},
	{"Figure 3", "composition of migrated data", "3", "",
		"Each VM's upload, split into mobile code, files and parameters, and control messages, over the Figure 1 runs. The paper: the same mobile code is pushed to every VM, and for ChessGame and Linpack it is more than half of the migrated data.",
		func(o *Oracle) []*metrics.Table { return o.VMs.Figure3Tables() }},
	{"Observation 4", "OS redundancy", "obs4", "",
		"After 20 mixed requests against one Android VM, the share of the OS image never accessed.",
		func(o *Oracle) []*metrics.Table { return o.Obs4.Tables() }},
	{"Table I", "overheads of code runtime environments", "", "1",
		"Setup time, memory and disk of the Android VM, the non-optimized Cloud Android Container (Rattrap(W/O)) and the optimized one (Rattrap), one boot each.",
		func(o *Oracle) []*metrics.Table { return o.TableI.Tables() }},
	{"Figure 9", "normalized average request time", "9", "",
		"The same request inflow per workload against Rattrap, Rattrap(W/O) and the VM cloud over LAN WiFi. A speedup is the VM's mean phase time over the platform's.",
		func(o *Oracle) []*metrics.Table { return o.Comparison.Figure9Tables() }},
	{"Table II", "total migrated data", "", "2",
		"Total upload per workload and platform over the Figure 9 runs. Where no earlier test bounded a cell, its band is the paper's value ±15%. `-table 2` also prints the downloads, which are not claimed.",
		func(o *Oracle) []*metrics.Table { return o.Comparison.TableIITables() }},
	{"Figure 10", "energy in network scenarios", "10", "",
		"Device energy per request normalized to running locally, per workload, network and platform, over 20 requests per device.",
		func(o *Oracle) []*metrics.Table { return o.Figure10.Tables() }},
	{"Figure 11", "trace-based simulation", "11", "",
		"A LiveLab-style trace replayed open loop against all three platforms: ChessGame speedups, the share that fails to beat local execution, and the share above 3.0x.",
		func(o *Oracle) []*metrics.Table { return o.Figure11.Tables() }},
	{"Idle reclamation", "just-in-time provisioning", "", "",
		fmt.Sprintf("Figure 11's trace replayed with the Monitor & Scheduler reclaiming runtimes idle for %g min (`experiments.ReclaimIdle`), so most sessions start cold. This supports reading the paper's trace experiment as one where runtimes do not stay warm across sessions.", ReclaimIdle.Minutes()),
		func(*Oracle) []*metrics.Table { return nil }},
}

// md lets a Go raw string hold Markdown: ^ stands for a backtick.
func md(s string) string { return strings.ReplaceAll(s, "^", "`") }

// RenderClaims renders EXPERIMENTS.md: every claim measured over o, one
// table per artefact, with the deviation notes and the ablations.
func RenderClaims(o *Oracle) string {
	measured := make(map[string]string, len(Claims))
	var b strings.Builder
	fmt.Fprintf(&b, md(`# EXPERIMENTS — paper vs. measured

<!-- Generated by ^go run ./cmd/rattrap-bench -claims > EXPERIMENTS.md^. Do not edit. -->

Every claim of the paper's evaluation is one row of ^experiments.Claims^
(^internal/experiments/claims.go^): an id, the paper's value, a measure over
the oracle and the band this reproduction accepts. The oracle is every run
behind the paper's tables and figures, each made once
(^experiments.RunOracle^), and ^go run ./cmd/rattrap-bench^ prints its
tables. This file is the claims table rendered at seed %d. Tier-1 (^go test
./cmd/rattrap-bench^) runs the oracle once, fails naming each claim whose
measure leaves its band, and byte-compares this file and
^cmd/rattrap-bench/testdata/oracle.golden^ with what the commit generates.

"Paper" values are from the IPDPS'17 text. The substrate is simulated and
calibrated against the paper's own measurements, so what is reproduced is
shape: who wins, by what factor, where the crossovers sit. Runs are
deterministic per seed.
`), o.Seed)
	for _, a := range Artefacts {
		fmt.Fprintf(&b, "\n## %s — %s", a.Name, a.Title)
		switch {
		case a.Fig != "":
			fmt.Fprintf(&b, " (`-fig %s`)", a.Fig)
		case a.Table != "":
			fmt.Fprintf(&b, " (`-table %s`)", a.Table)
		}
		fmt.Fprintf(&b, "\n\n%s\n\n| Claim | Paper | Measured | Accepted |\n|---|---|---|---|\n", a.Intro)
		var notes []string
		for _, c := range Claims {
			if c.Artefact != a.Name {
				continue
			}
			measured[c.ID] = c.Format(c.Measure(o))
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", c.ID, c.Paper, measured[c.ID], c.Band())
			if c.Note != "" {
				notes = append(notes, fmt.Sprintf("- `%s`: %s\n", c.ID, c.Note))
			}
		}
		if len(notes) > 0 {
			b.WriteString("\n" + strings.Join(notes, ""))
		}
	}
	fmt.Fprintf(&b, md(`
## Ablations

The §IV design choices, one at a time:

- **Shared Resource Layer page cache**: an optimized boot over a warm
  versus a cold shared layer (^BenchmarkAblationSharedLayerPageCache^).
- **App Warehouse**: ChessGame uploads %s with the code cache and %s
  without it (^table2.upload.ChessGame.rattrap^ and
  ^table2.upload.ChessGame.wo^).
- **Sharing Offloading I/O**: VirusScan's offloading I/O on the shared
  tmpfs versus the container's exclusive disk layer
  (^BenchmarkAblationSharedOffloadIO^).
- **Idle reclamation**: with runtimes reclaimed after %g min idle, the VM
  cloud fails %s of the trace's ChessGame requests and keeps %s above
  3.0x, while Rattrap fails %s (the ^reclaim.*^ rows).

The page-cache and offloading-I/O benchmarks (^go test -bench=Ablation .^)
report numbers that nothing gates yet; ROADMAP item 8(a) turns the
^BenchmarkAblation*^ functions into a gated ^rattrap-bench -ablation^ suite.

## Running everything

^^^
go run ./cmd/rattrap-bench                          # every table and figure
go run ./cmd/rattrap-bench -fig 11                  # one artefact
go run ./cmd/rattrap-bench -out res/                # also a .txt and a .csv per table
go run ./cmd/rattrap-bench -claims > EXPERIMENTS.md # this file
go test ./cmd/rattrap-bench                         # the claims and both files, at seed 42
^^^
`), measured["table2.upload.ChessGame.rattrap"], measured["table2.upload.ChessGame.wo"],
		ReclaimIdle.Minutes(), measured["reclaim.failure.vm"], measured["reclaim.above3.vm"], measured["reclaim.failure.rattrap"])
	return b.String()
}
