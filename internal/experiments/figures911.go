package experiments

import (
	"fmt"

	"rattrap/internal/core"
	"rattrap/internal/metrics"
	"rattrap/internal/netsim"
)

// Comparison holds the three-platform runs behind Figure 9 and Table II:
// for each workload, the same request inflow against Rattrap,
// Rattrap(W/O) and the VM-based cloud over LAN WiFi.
type Comparison struct {
	// Runs[app][kind] is that cell's run.
	Runs  map[string]map[core.Kind]*RunResult
	Order []string
	Kinds []core.Kind
}

// RunComparison executes the §VI-C experiment ("to model the user
// behavior, we use 5 Android devices running offloading workloads, and the
// same inflow of requests is used for both Rattrap and VM-based cloud").
// The workload × platform cells are independent simulations, so they run
// on the RunCells worker pool and merge in sweep order.
func RunComparison(seed int64) (*Comparison, error) {
	return RunComparisonShards(seed, 0)
}

// RunComparisonShards is RunComparison served through a cluster of the
// given shard count (0 = bare Platform). The shards=1 output is pinned
// byte-identical to shards=0 by TestComparisonOneShardCluster.
func RunComparisonShards(seed int64, shards int) (*Comparison, error) {
	c := &Comparison{
		Runs:  make(map[string]map[core.Kind]*RunResult),
		Order: workloadOrder(),
		Kinds: []core.Kind{core.KindRattrap, core.KindRattrapWO, core.KindVM},
	}
	type cell struct {
		app  string
		kind core.Kind
	}
	var cells []cell
	for _, app := range c.Order {
		c.Runs[app] = make(map[core.Kind]*RunResult)
		for _, kind := range c.Kinds {
			cells = append(cells, cell{app, kind})
		}
	}
	results := make([]*RunResult, len(cells))
	err := RunCells(len(cells), func(i int) error {
		cl := cells[i]
		cfg := DefaultRun(cl.kind, netsim.LANWiFi(), cl.app, seed)
		cfg.Shards = shards
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("comparison (%s, %v): %w", cl.app, cl.kind, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cl := range cells {
		c.Runs[cl.app][cl.kind] = results[i]
	}
	return c, nil
}

// Figure9Tables builds "Average performance of offloading requests":
// per-workload phase means normalized to the VM platform's total.
func (c *Comparison) Figure9Tables() []*metrics.Table {
	var out []*metrics.Table
	for _, app := range c.Order {
		_, vt, vp, ve := c.Runs[app][core.KindVM].MeanPhases()
		vmTotal := vt + vp + ve
		tb := metrics.NewTable(fmt.Sprintf("Figure 9(%s) — normalized average request time (VM = 1.0)", app),
			"platform", "compute", "prep", "transfer", "total")
		for _, kind := range c.Kinds {
			_, t, p, e := c.Runs[app][kind].MeanPhases()
			tb.AddRow(kind.String(),
				metrics.F(e/vmTotal, 3), metrics.F(p/vmTotal, 3),
				metrics.F(t/vmTotal, 3), metrics.F((t+p+e)/vmTotal, 3))
		}
		out = append(out, tb)
	}
	return out
}

// Figure9Render formats the sub-tables.
func (c *Comparison) Figure9Render() string { return renderTables(c.Figure9Tables()) }

// PrepSpeedup returns mean VM runtime-preparation time divided by the
// platform's (the 4.14–4.71x and 16.29–16.98x numbers).
func (c *Comparison) PrepSpeedup(app string, kind core.Kind) float64 {
	_, _, vp, _ := c.Runs[app][core.KindVM].MeanPhases()
	_, _, p, _ := c.Runs[app][kind].MeanPhases()
	if p == 0 {
		return 0
	}
	return vp / p
}

// ComputeSpeedup returns mean VM computation time divided by the
// platform's (1.02–1.13x W/O, 1.05–1.40x Rattrap).
func (c *Comparison) ComputeSpeedup(app string, kind core.Kind) float64 {
	_, _, _, ve := c.Runs[app][core.KindVM].MeanPhases()
	_, _, _, e := c.Runs[app][kind].MeanPhases()
	if e == 0 {
		return 0
	}
	return ve / e
}

// TransferSpeedup returns mean VM data-transfer time divided by the
// platform's (1.17–2.04x for Rattrap; ≈1 for W/O).
func (c *Comparison) TransferSpeedup(app string, kind core.Kind) float64 {
	_, vt, _, _ := c.Runs[app][core.KindVM].MeanPhases()
	_, t, _, _ := c.Runs[app][kind].MeanPhases()
	if t == 0 {
		return 0
	}
	return vt / t
}

// TableIITables builds "Total number of data transmitted with different
// benchmarks": download/upload KB per workload per platform.
func (c *Comparison) TableIITables() []*metrics.Table {
	tb := metrics.NewTable("Table II — total migrated data (KB); paper: e.g. ChessGame upload 4788 / 14011 / 13301",
		"workload", "direction", "Rattrap", "W/O", "VM")
	for _, app := range c.Order {
		cell := func(kind core.Kind, up bool) string {
			tr := c.Runs[app][kind].DeviceTraffic
			if up {
				return metrics.F(float64(tr.Up())/1024, 0)
			}
			return metrics.F(float64(tr.Down)/1024, 0)
		}
		tb.AddRow(app, "download", cell(core.KindRattrap, false), cell(core.KindRattrapWO, false), cell(core.KindVM, false))
		tb.AddRow(app, "upload", cell(core.KindRattrap, true), cell(core.KindRattrapWO, true), cell(core.KindVM, true))
	}
	return []*metrics.Table{tb}
}

// TableIIRender formats Table II.
func (c *Comparison) TableIIRender() string { return renderTables(c.TableIITables()) }

// Upload returns one Table II upload cell in KB.
func (c *Comparison) Upload(app string, kind core.Kind) float64 {
	return float64(c.Runs[app][kind].DeviceTraffic.Up()) / 1024
}

// Figure10 reproduces "Average power consumption of offloading requests in
// various network scenarios": per-workload, per-scenario, per-platform
// mean device energy normalized to local execution.
type Figure10 struct {
	// Norm[app][profile][kind] = normalized energy (local = 1.0).
	Norm  map[string]map[string]map[core.Kind]float64
	Order []string
	// Profiles in the paper's presentation order: Local, LAN, WAN, 4G, 3G.
	Profiles []string
	Kinds    []core.Kind
}

// RunFigure10 executes the energy evaluation. The paper records request
// streams with Rattrap and replays them for the baselines; the engine's
// fixed seed achieves the same identical-inflow property.
func RunFigure10(seed int64) (*Figure10, error) {
	f := &Figure10{
		Norm:     make(map[string]map[string]map[core.Kind]float64),
		Order:    workloadOrder(),
		Profiles: []string{"LAN WiFi", "WAN WiFi", "4G", "3G"},
		Kinds:    []core.Kind{core.KindRattrap, core.KindRattrapWO, core.KindVM},
	}
	type cell struct {
		app, prof string
		kind      core.Kind
	}
	var cells []cell
	for _, app := range f.Order {
		f.Norm[app] = make(map[string]map[core.Kind]float64)
		for _, profName := range f.Profiles {
			f.Norm[app][profName] = make(map[core.Kind]float64)
			for _, kind := range f.Kinds {
				cells = append(cells, cell{app, profName, kind})
			}
		}
	}
	norms := make([]float64, len(cells))
	err := RunCells(len(cells), func(i int) error {
		cl := cells[i]
		prof, err := netsim.ProfileByName(cl.prof)
		if err != nil {
			return err
		}
		// The paper replays recorded request streams, long enough that
		// cold starts amortize; 20 requests per device keeps that
		// property while still including the cold phase.
		cfg := DefaultRun(cl.kind, prof, cl.app, seed)
		cfg.RequestsPerDevice = 20
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("figure 10 (%s, %s, %v): %w", cl.app, cl.prof, cl.kind, err)
		}
		norms[i] = r.MeanEnergyNormalized()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cl := range cells {
		f.Norm[cl.app][cl.prof][cl.kind] = norms[i]
	}
	return f, nil
}

// Tables builds the four sub-figures.
func (f *Figure10) Tables() []*metrics.Table {
	var out []*metrics.Table
	for _, app := range f.Order {
		tb := metrics.NewTable(fmt.Sprintf("Figure 10(%s) — normalized energy (local execution = 1.0)", app),
			"scenario", "Rattrap", "Rattrap(W/O)", "VM")
		tb.AddRow("Local", "1.000", "1.000", "1.000")
		for _, prof := range f.Profiles {
			row := []string{prof}
			for _, kind := range f.Kinds {
				row = append(row, metrics.F(f.Norm[app][prof][kind], 3))
			}
			tb.AddRow(row...)
		}
		out = append(out, tb)
	}
	return out
}

// Render formats the sub-figures.
func (f *Figure10) Render() string { return renderTables(f.Tables()) }

// EnergyAdvantage returns VM energy divided by Rattrap energy for a cell —
// the paper's "Rattrap outperforms VM by 1.37x with ChessGame".
func (f *Figure10) EnergyAdvantage(app, profile string) float64 {
	r := f.Norm[app][profile][core.KindRattrap]
	v := f.Norm[app][profile][core.KindVM]
	if r == 0 {
		return 0
	}
	return v / r
}

// WarehouseStats exposes the Rattrap run's warehouse totals for one
// workload (entries should be 1: code transferred "once and for all").
func (c *Comparison) WarehouseStats(app string) (entries, hits int) {
	r := c.Runs[app][core.KindRattrap]
	return r.WarehouseEntries, r.WarehouseHits
}
