package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/host"
	"rattrap/internal/metrics"
	"rattrap/internal/netsim"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// Figure1 reproduces "Phase details and offloading speedups when running
// different workloads with the existing cloud platform. The first 20
// offloading requests are investigated": per-workload request phase
// breakdowns against the VM-based cloud over LAN WiFi.
type Figure1 struct {
	PerWorkload map[string]*RunResult
	Order       []string
}

// RunFigure1 executes the §III-B characterization. The four per-workload
// runs are independent simulations and run on the RunCells worker pool.
func RunFigure1(seed int64) (*Figure1, error) {
	f := &Figure1{PerWorkload: make(map[string]*RunResult), Order: workloadOrder()}
	results := make([]*RunResult, len(f.Order))
	err := RunCells(len(f.Order), func(i int) error {
		app := f.Order[i]
		r, err := Run(DefaultRun(core.KindVM, netsim.LANWiFi(), app, seed))
		if err != nil {
			return fmt.Errorf("figure 1 (%s): %w", app, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, app := range f.Order {
		f.PerWorkload[app] = results[i]
	}
	return f, nil
}

func workloadOrder() []string {
	return []string{workload.NameOCR, workload.NameChess, workload.NameVirusScan, workload.NameLinpack}
}

// Tables builds one sub-table per workload, requests in start order.
func (f *Figure1) Tables() []*metrics.Table {
	var out []*metrics.Table
	for _, app := range f.Order {
		r := f.PerWorkload[app]
		recs := append([]RequestRecord(nil), r.Records...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
		tb := metrics.NewTable(fmt.Sprintf("Figure 1(%s) — VM-based cloud, LAN WiFi", app),
			"req", "device", "conn(ms)", "transfer(ms)", "prep(ms)", "compute(ms)", "speedup", "failure")
		for i, rec := range recs {
			fail := ""
			if rec.Failed() {
				fail = "FAIL"
			}
			tb.AddRow(
				fmt.Sprintf("%d", i+1), rec.Device,
				metrics.F(rec.Phases.NetworkConnection.Seconds()*1000, 0),
				metrics.F(rec.Phases.DataTransfer.Seconds()*1000, 0),
				metrics.F(rec.Phases.RuntimePreparation.Seconds()*1000, 0),
				metrics.F(rec.Phases.ComputationExecution.Seconds()*1000, 0),
				metrics.F(rec.Speedup, 2), fail)
		}
		out = append(out, tb)
	}
	return out
}

// Render formats the sub-tables.
func (f *Figure1) Render() string { return renderTables(f.Tables()) }

// Figure2 reproduces "System load in offloading process of different
// applications": per-second server CPU utilization and disk I/O timelines
// during the Figure 1 runs.
type Figure2 struct {
	PerWorkload map[string]*RunResult
	Order       []string
}

// RunFigure2 executes the server-load characterization.
func RunFigure2(seed int64) (*Figure2, error) {
	f1, err := RunFigure1(seed)
	if err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}
	return &Figure2{PerWorkload: f1.PerWorkload, Order: f1.Order}, nil
}

// Tables builds 10-second-bucket averages of the per-second series.
func (f *Figure2) Tables() []*metrics.Table {
	var out []*metrics.Table
	for _, app := range f.Order {
		r := f.PerWorkload[app]
		tb := metrics.NewTable(fmt.Sprintf("Figure 2(%s) — server load timeline", app),
			"t(s)", "CPU(%)", "read(MB/s)", "write(MB/s)")
		for t := 0; t < len(r.ServerCPU); t += 10 {
			end := t + 10
			if end > len(r.ServerCPU) {
				end = len(r.ServerCPU)
			}
			window := func(xs []float64) float64 { return metrics.Mean(xs[t:end]) }
			tb.AddRow(fmt.Sprintf("%d", t),
				metrics.F(window(r.ServerCPU), 1),
				metrics.F(window(r.ServerIORead), 1),
				metrics.F(window(r.ServerIOWrite), 1))
		}
		out = append(out, tb)
	}
	return out
}

// Render formats the sub-tables.
func (f *Figure2) Render() string { return renderTables(f.Tables()) }

// Figure3 reproduces "Composition of migrated data with different
// workloads": per-VM upload composition (mobile code / files+parameters /
// control messages), normalized per VM.
type Figure3 struct {
	PerWorkload map[string]*RunResult
	Order       []string
}

// RunFigure3 executes the duplicate-code-transfer characterization.
func RunFigure3(seed int64) (*Figure3, error) {
	f1, err := RunFigure1(seed)
	if err != nil {
		return nil, fmt.Errorf("figure 3: %w", err)
	}
	return &Figure3{PerWorkload: f1.PerWorkload, Order: f1.Order}, nil
}

// Tables builds each VM's composition fractions.
func (f *Figure3) Tables() []*metrics.Table {
	var out []*metrics.Table
	for _, app := range f.Order {
		r := f.PerWorkload[app]
		tb := metrics.NewTable(fmt.Sprintf("Figure 3(%s) — migrated data per VM", app),
			"vm", "code(KB)", "file+param(KB)", "control(KB)", "code frac")
		for _, info := range r.Runtimes {
			up := info.Traffic.Up()
			frac := 0.0
			if up > 0 {
				frac = float64(info.Traffic.CodeUp) / float64(up)
			}
			tb.AddRow(info.CID,
				metrics.F(float64(info.Traffic.CodeUp)/1024, 0),
				metrics.F(float64(info.Traffic.FileParamUp)/1024, 0),
				metrics.F(float64(info.Traffic.ControlUp)/1024, 1),
				metrics.F(frac, 2))
		}
		out = append(out, tb)
	}
	return out
}

// Render formats the sub-tables.
func (f *Figure3) Render() string { return renderTables(f.Tables()) }

// CodeFraction returns mobile code's share of a workload's per-VM upload,
// averaged over VMs — ">50% for ChessGame and Linpack" in Observation 3.
func (f *Figure3) CodeFraction(app string) float64 {
	r := f.PerWorkload[app]
	var fracs []float64
	for _, info := range r.Runtimes {
		if up := info.Traffic.Up(); up > 0 {
			fracs = append(fracs, float64(info.Traffic.CodeUp)/float64(up))
		}
	}
	return metrics.Mean(fracs)
}

// Observation4 reproduces the §III-E redundancy profiling: after a mixed
// offloading run against a single Android VM, how much of the OS image was
// never accessed.
type Observation4 struct {
	TotalBytes         host.Bytes
	SystemBytes        host.Bytes
	NeverAccessedBytes host.Bytes
	NeverFraction      float64
	SystemFraction     float64
}

// RunObservation4 executes the profiling run.
func RunObservation4(seed int64) (*Observation4, error) {
	e := sim.NewEngine(seed)
	cfg := core.DefaultConfig(core.KindVM)
	cfg.MaxRuntimes = 1
	pl := core.New(e, cfg)

	// 20 mixed requests through one VM, then inspect file access times.
	apps := workloadOrder()
	var runErr error
	e.Spawn("profiler", func(p *sim.Proc) {
		dev, err := newDevice(e, "phone-1")
		if err != nil {
			runErr = err
			return
		}
		for r := 0; r < 20; r++ {
			appName := apps[r%len(apps)]
			app, _ := workload.ByName(appName)
			task := dev.NewTask(app)
			if _, _, err := dev.Offload(p, task, app.CodeSize(), pl); err != nil {
				runErr = err
				return
			}
		}
	})
	e.Run() // drain everything, including the guest's background scan
	if runErr != nil {
		return nil, runErr
	}

	// "After the experiments above are finished, we check the last access
	// time of each part of Android OS."
	infos := pl.DB().List()
	if len(infos) != 1 {
		return nil, fmt.Errorf("observation 4: %d runtimes, want 1", len(infos))
	}
	fs, ok := pl.RuntimeFS(infos[0].CID)
	if !ok {
		return nil, fmt.Errorf("observation 4: runtime fs missing")
	}
	disk := fs.Layers()[0] // the VM's private image
	obs := &Observation4{
		TotalBytes:         disk.Size(),
		SystemBytes:        disk.SizeUnder("/system"),
		NeverAccessedBytes: disk.NeverAccessedSize(),
	}
	obs.NeverFraction = float64(obs.NeverAccessedBytes) / float64(obs.TotalBytes)
	obs.SystemFraction = float64(obs.SystemBytes) / float64(obs.TotalBytes)
	return obs, nil
}

// Tables builds the observation against the paper's numbers.
func (o *Observation4) Tables() []*metrics.Table {
	tb := metrics.NewTable("Observation 4 — OS redundancy profiling (paper: 771MB/1.1GB = 68.4% never accessed; /system 87.4%)",
		"metric", "measured", "paper")
	tb.AddRow("image size (MB)", metrics.F(float64(o.TotalBytes)/float64(host.MB), 0), "~1126")
	tb.AddRow("/system (MB)", metrics.F(float64(o.SystemBytes)/float64(host.MB), 0), "985")
	tb.AddRow("never accessed (MB)", metrics.F(float64(o.NeverAccessedBytes)/float64(host.MB), 0), "771")
	tb.AddRow("never accessed (%)", metrics.F(o.NeverFraction*100, 1), "68.4")
	tb.AddRow("/system share (%)", metrics.F(o.SystemFraction*100, 1), "87.4")
	return []*metrics.Table{tb}
}

// Render formats the observation.
func (o *Observation4) Render() string { return renderTables(o.Tables()) }

// TableI reproduces "Overheads of code runtime environments".
type TableI struct {
	Rows []TableIRow
}

// TableIRow is one runtime environment's overheads.
type TableIRow struct {
	Runtime  string
	Setup    time.Duration
	MemoryMB int
	VCPUs    int
	Disk     host.Bytes
}

// RunTableI boots one runtime of each kind and measures.
func RunTableI(seed int64) (*TableI, error) {
	t := &TableI{}
	for _, kind := range []core.Kind{core.KindVM, core.KindRattrapWO, core.KindRattrap} {
		e := sim.NewEngine(seed)
		pl := core.New(e, core.DefaultConfig(kind))
		var row TableIRow
		var runErr error
		e.Spawn("boot", func(p *sim.Proc) {
			info, err := pl.BootRuntime(p)
			if err != nil {
				runErr = err
				return
			}
			row = TableIRow{
				Runtime: label(kind), Setup: info.BootTime,
				MemoryMB: info.MemMB, VCPUs: 1, Disk: info.DiskBytes,
			}
		})
		e.Run()
		if runErr != nil {
			return nil, fmt.Errorf("table I (%v): %w", kind, runErr)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func label(kind core.Kind) string {
	switch kind {
	case core.KindVM:
		return "Android VM"
	case core.KindRattrapWO:
		return "CAC (non-optimized)"
	default:
		return "CAC"
	}
}

// Tables builds Table I.
func (t *TableI) Tables() []*metrics.Table {
	tb := metrics.NewTable("Table I — overheads of code runtime environments (paper: 28.72s/512MB/1.1GB, 6.80s/128MB/1.02GB, 1.75s/96MB/7.1MB)",
		"Code Runtime", "Setup Time", "Memory Footprint", "CPU Allocation", "Disk Usage")
	for _, r := range t.Rows {
		disk := fmt.Sprintf("%.2fGB", float64(r.Disk)/float64(host.GB))
		if r.Disk < 100*host.MB {
			disk = fmt.Sprintf("%.1fMB", float64(r.Disk)/float64(host.MB))
		}
		tb.AddRow(r.Runtime, fmt.Sprintf("%.2fs", r.Setup.Seconds()),
			fmt.Sprintf("%dMB", r.MemoryMB), fmt.Sprintf("%dvCPU", r.VCPUs), disk)
	}
	return []*metrics.Table{tb}
}

// Render formats Table I.
func (t *TableI) Render() string { return renderTables(t.Tables()) }

// renderTables joins table renders with blank lines.
func renderTables(ts []*metrics.Table) string {
	var b strings.Builder
	for i, tb := range ts {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(tb.Render())
	}
	return b.String()
}
