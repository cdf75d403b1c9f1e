package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/host"
	"rattrap/internal/metrics"
	"rattrap/internal/workload"
)

// A Claim is one statement of the paper's evaluation, measured over the
// oracle and held to the band this reproduction accepts. Claims is the one
// place a claim is written down: `go test ./cmd/rattrap-bench` fails on a
// measure that leaves its band, and EXPERIMENTS.md is rendered from the
// rows (`rattrap-bench -claims`).
type Claim struct {
	// ID names the claim: <artefact>.<quantity>[.<workload or platform>].
	ID string
	// Artefact is the Name of the table or figure in Artefacts the claim
	// belongs to.
	Artefact string
	// Paper is what the paper reports, in its own numbers.
	Paper   string
	Measure func(*Oracle) float64
	// Lo and Hi bound the accepted band; a one-sided band has ±Inf on its
	// open side. Open excludes the finite ends.
	Lo, Hi float64
	Open   bool
	// Unit is shown after a value; "%" also scales a fraction by 100.
	Unit string
	// Prec is the number of decimals shown.
	Prec int
	// Note records where and why the reproduction deviates from the paper.
	Note string
}

// Holds reports whether v lies in the claim's band (NaN never does).
func (c Claim) Holds(v float64) bool {
	if c.Open {
		return (math.IsInf(c.Lo, -1) || v > c.Lo) && (math.IsInf(c.Hi, 1) || v < c.Hi)
	}
	return v >= c.Lo && v <= c.Hi
}

// scale converts a measure to the unit it is shown in.
func (c Claim) scale(v float64) float64 {
	if c.Unit == "%" {
		return v * 100
	}
	return v
}

func (c Claim) unit(s string) string {
	switch c.Unit {
	case "", "%", "x":
		return s + c.Unit
	}
	return s + " " + c.Unit
}

// Format renders a measured value in the claim's unit and precision.
func (c Claim) Format(v float64) string {
	return c.unit(strconv.FormatFloat(c.scale(v), 'f', c.Prec, 64))
}

// Band renders the accepted band.
func (c Claim) Band() string {
	num := func(v float64) string {
		return strconv.FormatFloat(math.Round(c.scale(v)*1e6)/1e6, 'f', -1, 64)
	}
	lt, gt := "≤ ", "≥ "
	if c.Open {
		lt, gt = "< ", "> "
	}
	switch {
	case c.Lo == c.Hi:
		return c.unit("= " + num(c.Lo))
	case math.IsInf(c.Lo, -1):
		return c.unit(lt + num(c.Hi))
	case math.IsInf(c.Hi, 1):
		return c.unit(gt + num(c.Lo))
	}
	return c.unit(num(c.Lo) + "–" + num(c.Hi))
}

// Check measures every claim over o and returns an error naming each one
// whose measure leaves its band, with the value and the band.
func Check(o *Oracle, claims []Claim) error {
	var out []string
	for _, c := range claims {
		if v := c.Measure(o); !c.Holds(v) {
			out = append(out, fmt.Sprintf("%s = %s, band %s", c.ID, c.Format(v), c.Band()))
		}
	}
	if len(out) > 0 {
		return fmt.Errorf("%d claims leave their band: %s", len(out), strings.Join(out, "; "))
	}
	return nil
}

var inf = math.Inf(1)

// ratio is a/b, +Inf when b is zero and a is not, NaN when both are.
func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return math.NaN()
		}
		return inf
	}
	return a / b
}

// Claims is the paper's evaluation, one row per claim; EXPERIMENTS.md
// shows each artefact's rows in this order.
var Claims = claims()

func claims() []Claim {
	R, WO, VM := core.KindRattrap, core.KindRattrapWO, core.KindVM
	apps := workloadOrder()
	var cs []Claim
	add := func(artefact string, c ...Claim) {
		for i := range c {
			c[i].Artefact = artefact
		}
		cs = append(cs, c...)
	}
	// less and over combine two measures into a − b and a / b.
	less := func(a, b func(*Oracle) float64) func(*Oracle) float64 {
		return func(o *Oracle) float64 { return a(o) - b(o) }
	}
	over := func(a, b func(*Oracle) float64) func(*Oracle) float64 {
		return func(o *Oracle) float64 { return ratio(a(o), b(o)) }
	}

	// Table I: rows 0, 1 and 2 are the VM, Rattrap(W/O) and Rattrap.
	row := func(i int, f func(TableIRow) float64) func(*Oracle) float64 {
		return func(o *Oracle) float64 { return f(o.TableI.Rows[i]) }
	}
	setup := func(r TableIRow) float64 { return r.Setup.Seconds() }
	mem := func(r TableIRow) float64 { return float64(r.MemoryMB) }
	disk := func(r TableIRow) float64 { return float64(r.Disk) / float64(host.MB) }
	vmOver := func(i int, f func(TableIRow) float64) func(*Oracle) float64 { return over(row(0, f), row(i, f)) }
	saving := func(f func(TableIRow) float64) func(*Oracle) float64 {
		return func(o *Oracle) float64 { return 1 - ratio(f(o.TableI.Rows[2]), f(o.TableI.Rows[0])) }
	}
	add("Table I",
		Claim{ID: "table1.setup.vm", Paper: "28.72 s", Measure: row(0, setup), Lo: 25, Hi: 33, Unit: "s", Prec: 2},
		Claim{ID: "table1.setup.wo", Paper: "6.80 s", Measure: row(1, setup), Lo: 5.5, Hi: 8, Unit: "s", Prec: 2},
		Claim{ID: "table1.setup.rattrap", Paper: "1.75 s", Measure: row(2, setup), Lo: 1.4, Hi: 2.1, Unit: "s", Prec: 2},
		Claim{ID: "table1.setup-speedup.wo", Paper: "4.22x", Measure: vmOver(1, setup), Lo: 3.5, Hi: 5, Unit: "x", Prec: 2},
		Claim{ID: "table1.setup-speedup.rattrap", Paper: "16.41x", Measure: vmOver(2, setup), Lo: 13, Hi: 20, Unit: "x", Prec: 1},
		Claim{ID: "table1.memory.vm", Paper: "512 MB", Measure: row(0, mem), Lo: 512, Hi: 512, Unit: "MB"},
		Claim{ID: "table1.memory.rattrap", Paper: "96 MB (96.35 used)", Measure: row(2, mem), Lo: 90, Hi: 96, Unit: "MB"},
		Claim{ID: "table1.memory-saving", Paper: "≈75%", Measure: saving(mem), Lo: 0.75, Hi: 1, Unit: "%", Prec: 1},
		Claim{ID: "table1.disk.rattrap", Paper: "7.1 MB", Measure: row(2, disk), Lo: 0, Hi: 7.1, Unit: "MB", Prec: 1,
			Note: "Per container: the Shared Resource Layer is charged once, platform-wide."},
		Claim{ID: "table1.disk-saving", Paper: "≥ 79%", Measure: saving(disk), Lo: 0.79, Hi: 1, Unit: "%", Prec: 1},
	)

	// Figure 1: a request is cold when its runtime preparation includes a
	// VM boot.
	cold := func(rec RequestRecord) bool { return rec.Phases.RuntimePreparation > 20*time.Second }
	count := func(app string, pred func(RequestRecord) bool) func(*Oracle) float64 {
		return func(o *Oracle) float64 {
			n := 0
			for _, rec := range o.VMs.PerWorkload[app].Records {
				if pred(rec) {
					n++
				}
			}
			return float64(n)
		}
	}
	for _, app := range apps {
		warm := count(app, func(rec RequestRecord) bool { return !cold(rec) })
		warmWins := count(app, func(rec RequestRecord) bool { return !cold(rec) && !rec.Failed() })
		add("Figure 1",
			Claim{ID: "fig1.requests." + app, Paper: "the first 20 requests", Lo: 20, Hi: 20,
				Measure: count(app, func(RequestRecord) bool { return true })},
			Claim{ID: "fig1.cold-starts." + app, Paper: "one per VM, 5", Lo: 5, Hi: 5, Measure: count(app, cold)},
			Claim{ID: "fig1.cold-wins." + app, Paper: "none: each VM's first request fails", Lo: 0, Hi: 0,
				Measure: count(app, func(rec RequestRecord) bool { return cold(rec) && !rec.Failed() })},
			Claim{ID: "fig1.warm-wins." + app, Paper: "later requests succeed", Lo: 0.75, Hi: 1, Unit: "%",
				Measure: func(o *Oracle) float64 { return ratio(warmWins(o), warm(o)) }},
		)
	}
	add("Figure 1", Claim{ID: "fig1.cold-prep", Paper: "~28 s", Lo: 25, Hi: 33, Unit: "s", Prec: 1,
		Measure: func(o *Oracle) float64 {
			var preps []float64
			for _, app := range apps {
				for _, rec := range o.VMs.PerWorkload[app].Records {
					if cold(rec) {
						preps = append(preps, rec.Phases.RuntimePreparation.Seconds())
					}
				}
			}
			return metrics.Mean(preps)
		},
		Note: "The mean over every workload's five cold requests, held to table1.setup.vm's band: a cold request's preparation is a VM boot."})

	// Figure 2: the boot window is the first 30 s of each run.
	bootMean := func(app string, series func(*RunResult) []float64) func(*Oracle) float64 {
		return func(o *Oracle) float64 {
			xs := series(o.VMs.PerWorkload[app])
			return metrics.Mean(xs[:min(30, len(xs))])
		}
	}
	for _, app := range apps {
		add("Figure 2",
			Claim{ID: "fig2.horizon." + app, Paper: "boot load over 0–30 s", Lo: 30, Hi: inf, Unit: "s",
				Measure: func(o *Oracle) float64 { return float64(len(o.VMs.PerWorkload[app].ServerCPU)) }},
			Claim{ID: "fig2.boot-cpu." + app, Paper: "visible CPU load while VMs boot", Lo: 0.05, Hi: inf, Unit: "%", Prec: 1,
				Measure: func(o *Oracle) float64 {
					return bootMean(app, func(r *RunResult) []float64 { return r.ServerCPU })(o) / 100
				}},
			Claim{ID: "fig2.boot-read." + app, Paper: "disk reads while VMs boot", Lo: 5, Hi: inf, Unit: "MB/s", Prec: 1,
				Measure: bootMean(app, func(r *RunResult) []float64 { return r.ServerIORead })},
		)
	}
	add("Figure 2", Claim{ID: "fig2.post-boot-read", Paper: "I/O-heavy VirusScan reads more after boot", Lo: 1, Hi: inf, Open: true, Unit: "x", Prec: 2,
		Measure: func(o *Oracle) float64 {
			vs := o.VMs.PerWorkload[workload.NameVirusScan].ServerIORead
			lp := o.VMs.PerWorkload[workload.NameLinpack].ServerIORead
			if len(vs) <= 31 || len(lp) <= 31 {
				return math.NaN()
			}
			return ratio(metrics.Sum(vs[31:]), metrics.Sum(lp[31:min(len(lp), len(vs))]))
		},
		Note: "VirusScan's server reads after the boot window over Linpack's."})

	// Figure 3.
	for _, app := range apps {
		c := Claim{ID: "fig3.code-fraction." + app, Paper: "> 0.5 for ChessGame and Linpack", Lo: 0.5, Hi: inf, Open: true, Prec: 3,
			Measure: func(o *Oracle) float64 { return o.VMs.CodeFraction(app) }}
		if app != workload.NameChess && app != workload.NameLinpack {
			c.Lo, c.Hi, c.Paper = math.Inf(-1), 0.5, "file-heavy: not dominated by code"
		}
		add("Figure 3", c, Claim{ID: "fig3.code-copies." + app, Paper: "the same code pushed to every VM", Lo: 5, Hi: 5,
			Measure: func(o *Oracle) float64 {
				n := 0
				for _, info := range o.VMs.PerWorkload[app].Runtimes {
					if info.Traffic.CodeUp > 0 {
						n++
					}
				}
				return float64(n)
			}})
	}

	add("Observation 4",
		Claim{ID: "obs4.never-accessed", Paper: "771 MB", Lo: 771, Hi: 771, Unit: "MB",
			Measure: func(o *Oracle) float64 { return float64(o.Obs4.NeverAccessedBytes) / float64(host.MB) },
			Note:    "Exact by construction: the image manifest encodes the paper's composition, and boot, background scan and offloading touch exactly the set customization cannot strip."},
		Claim{ID: "obs4.never-fraction", Paper: "68.4%", Lo: 0.67, Hi: 0.70, Unit: "%", Prec: 1,
			Measure: func(o *Oracle) float64 { return o.Obs4.NeverFraction },
			Note:    "Below the paper's share because the files boot writes join the denominator."},
		Claim{ID: "obs4.system-fraction", Paper: "87.4% (985 MB)", Lo: 0.86, Hi: 0.88, Unit: "%", Prec: 1,
			Measure: func(o *Oracle) float64 { return o.Obs4.SystemFraction }},
	)

	// Figure 9: a speedup is the VM's mean time in one phase over the
	// platform's.
	const transfer, prep, compute = 1, 2, 3 // MeanPhases' order
	speedup := func(phase int, app string, kind core.Kind) func(*Oracle) float64 {
		return func(o *Oracle) float64 {
			mean := func(kind core.Kind) float64 {
				conn, transfer, prep, comp := o.Comparison.Runs[app][kind].MeanPhases()
				return [...]float64{conn, transfer, prep, comp}[phase]
			}
			return ratio(mean(VM), mean(kind))
		}
	}
	for _, app := range apps {
		c := Claim{ID: "fig9.transfer-speedup.rattrap." + app, Paper: "1.17–2.04x", Lo: 1.05, Hi: 3.2, Unit: "x", Prec: 2,
			Measure: speedup(transfer, app, R)}
		if app == workload.NameChess {
			c.Note = "Above the paper's range: code dominates ChessGame's migrated data, and the App Warehouse removes exactly four of its five pushes."
		}
		add("Figure 9",
			Claim{ID: "fig9.prep-speedup.wo." + app, Paper: "4.14–4.71x", Lo: 3.5, Hi: 5.5, Unit: "x", Prec: 2, Measure: speedup(prep, app, WO)},
			Claim{ID: "fig9.prep-speedup.rattrap." + app, Paper: "16.29–16.98x", Lo: 13, Hi: 21, Unit: "x", Prec: 2, Measure: speedup(prep, app, R)},
			Claim{ID: "fig9.transfer-speedup.wo." + app, Paper: "none without the code cache", Lo: 0.85, Hi: 1.25, Unit: "x", Prec: 2,
				Measure: speedup(transfer, app, WO)},
			c)
	}
	for _, app := range apps {
		if app != workload.NameChess { // interactive: its exchanges cross the VM's emulated NIC
			add("Figure 9", Claim{ID: "fig9.compute-speedup.wo." + app, Paper: "1.02–1.13x", Lo: 1, Hi: 1.3, Unit: "x", Prec: 2,
				Measure: speedup(compute, app, WO)})
		}
	}
	add("Figure 9",
		Claim{ID: "fig9.compute-speedup.rattrap." + workload.NameVirusScan, Paper: "1.40x, the largest", Lo: 1.1, Hi: 1.65, Unit: "x", Prec: 2,
			Measure: speedup(compute, workload.NameVirusScan, R),
			Note:    "The band is for the batch workloads. ChessGame's VM computation is slower still, because its interactive exchanges are modelled through the VM's emulated NIC, the mechanism behind Figures 10 and 11's chess results."},
		Claim{ID: "fig9.compute-order", Paper: "VirusScan gains most, Linpack least", Lo: 1, Hi: inf, Open: true, Unit: "x", Prec: 2,
			Measure: over(speedup(compute, workload.NameVirusScan, R), speedup(compute, workload.NameLinpack, R)),
			Note:    "VirusScan's Rattrap computation speedup over Linpack's."},
	)
	for _, app := range apps {
		add("Figure 9", Claim{ID: "fig9.warehouse-entries." + app, Paper: "code transferred once and for all", Lo: 1, Hi: 1,
			Measure: func(o *Oracle) float64 { return float64(o.Comparison.Runs[app][R].WarehouseEntries) }})
	}

	// Table II: the upload cells in KB. Where no test bounded a cell, its
	// band is the paper's value ±15 %.
	paperUp := map[string][3]float64{ // Rattrap, W/O, VM
		workload.NameOCR:       {29440, 34233, 35047},
		workload.NameChess:     {4788, 14011, 13301},
		workload.NameVirusScan: {91973, 99375, 98895},
		workload.NameLinpack:   {169, 776, 705},
	}
	bands := map[string][2]float64{
		"ChessGame.rattrap": {4200, 5400}, "ChessGame.vm": {12000, 15500},
		"Linpack.rattrap": {140, 210}, "Linpack.vm": {650, 900},
	}
	for _, app := range apps {
		for i, kind := range []core.Kind{R, WO, VM} {
			cell, paper := app+"."+[...]string{"rattrap", "wo", "vm"}[i], paperUp[app][i]
			b, ok := bands[cell]
			if !ok {
				b = [2]float64{math.Round(paper * 0.85), math.Round(paper * 1.15)}
			}
			add("Table II", Claim{ID: "table2.upload." + cell, Paper: fmt.Sprintf("%.0f KB", paper), Lo: b[0], Hi: b[1], Unit: "KB",
				Measure: func(o *Oracle) float64 { return float64(o.Comparison.Runs[app][kind].DeviceTraffic.Up()) / 1024 }})
		}
	}

	// Figure 10.
	norm := func(o *Oracle, app, prof string, kind core.Kind) float64 { return o.Figure10.Norm[app][prof][kind] }
	add("Figure 10",
		Claim{ID: "fig10.order", Paper: "Rattrap < Rattrap(W/O) < VM", Lo: 0, Hi: inf, Open: true, Prec: 3,
			Measure: func(o *Oracle) float64 {
				m := inf
				for _, app := range o.Figure10.Order {
					for _, prof := range o.Figure10.Profiles {
						r, wo, vm := norm(o, app, prof, R), norm(o, app, prof, WO), norm(o, app, prof, VM)
						if r != wo || wo != vm { // equal: the decision engine ran it locally everywhere
							m = math.Min(m, math.Min(wo-r, vm-wo))
						}
					}
				}
				return m
			},
			Note: "The smallest gap between neighbours, over every cell some platform offloads: a positive value orders all of them."},
		Claim{ID: "fig10.vm.ChessGame.lan", Paper: "offloading extends battery life", Lo: math.Inf(-1), Hi: 1, Open: true, Prec: 3,
			Measure: func(o *Oracle) float64 { return norm(o, workload.NameChess, "LAN WiFi", VM) }},
	)
	paperAdv := map[string]string{
		workload.NameOCR: "1.22x", workload.NameChess: "1.37x", workload.NameVirusScan: "1.13x", workload.NameLinpack: "1.15x",
	}
	for _, app := range apps {
		c := Claim{ID: "fig10.advantage." + app + ".lan", Paper: paperAdv[app], Lo: 1, Hi: inf, Open: true, Unit: "x", Prec: 2,
			Measure: func(o *Oracle) float64 { return ratio(norm(o, app, "LAN WiFi", VM), norm(o, app, "LAN WiFi", R)) }}
		if app == workload.NameChess {
			c.Lo, c.Open = 1.2, false
			c.Note = "VM over Rattrap energy. Every advantage is larger than the paper's: the device idles through the VM cold starts the run still carries, which the paper's longer recorded streams amortize further."
		}
		add("Figure 10", c)
	}
	ocrGap := func(o *Oracle, prof string) float64 {
		return norm(o, workload.NameOCR, prof, VM) - norm(o, workload.NameOCR, prof, R)
	}
	add("Figure 10",
		Claim{ID: "fig10.gap.OCR.3g", Paper: "the gap vanishes as the network degrades", Lo: 0, Hi: 0, Prec: 3,
			Measure: func(o *Oracle) float64 { return ocrGap(o, "3G") },
			Note:    "On 3G the file transfer dominates and the decision engine runs OCR locally on every platform."},
		Claim{ID: "fig10.gap-shrink.OCR", Paper: "the gap shrinks from LAN to 3G", Lo: 0, Hi: inf, Open: true, Prec: 3,
			Measure: func(o *Oracle) float64 { return ocrGap(o, "LAN WiFi") - ocrGap(o, "3G") },
			Note:    "OCR's VM-over-Rattrap energy gap on LAN WiFi less its gap on 3G. Between LAN, WAN and 4G the gap does not shrink; only 3G closes it."},
	)

	// Figure 11, and the just-in-time ablation: its trace replayed with
	// idle reclamation.
	warm := func(o *Oracle) *Figure11 { return o.Figure11 }
	reclaimed := func(o *Oracle) *Figure11 { return o.Reclaimed }
	fail := func(f func(*Oracle) *Figure11, kind core.Kind) func(*Oracle) float64 {
		return func(o *Oracle) float64 { return f(o).FailureRate[kind] }
	}
	above3 := func(f func(*Oracle) *Figure11, kind core.Kind) func(*Oracle) float64 {
		return func(o *Oracle) float64 { return f(o).Above3[kind] }
	}
	add("Figure 11",
		Claim{ID: "fig11.requests", Paper: "the ChessGame requests of the trace", Lo: 30, Hi: inf,
			Measure: func(o *Oracle) float64 { return float64(len(o.Figure11.Speedups[R])) }},
		Claim{ID: "fig11.failure.rattrap", Paper: "1.3%", Lo: 0, Hi: 0.03, Unit: "%", Prec: 1, Measure: fail(warm, R)},
		Claim{ID: "fig11.failure.vm", Paper: "9.7%", Lo: 0.03, Hi: 0.15, Unit: "%", Prec: 1, Measure: fail(warm, VM)},
		Claim{ID: "fig11.failure-order.wo", Paper: "7.7% − 1.3%", Lo: 0, Hi: inf, Unit: "%", Prec: 1,
			Measure: less(fail(warm, WO), fail(warm, R)), Note: "Rattrap(W/O)'s failure rate less Rattrap's."},
		Claim{ID: "fig11.failure-order.vm", Paper: "9.7% − 7.7%", Lo: 0, Hi: inf, Unit: "%", Prec: 1,
			Measure: less(fail(warm, VM), fail(warm, WO)), Note: "The VM's failure rate less Rattrap(W/O)'s."},
		Claim{ID: "fig11.above3.rattrap", Paper: "54.0%", Lo: 0.4, Hi: 0.65, Unit: "%", Prec: 1, Measure: above3(warm, R)},
		Claim{ID: "fig11.above3-gap.wo", Paper: "54.0% − 50.8%", Lo: -0.08, Hi: 0.12, Unit: "%", Prec: 1,
			Measure: less(above3(warm, R), above3(warm, WO)),
			Note:    "Rattrap's share above 3.0x less Rattrap(W/O)'s: the two stay close."},
		Claim{ID: "fig11.above3-gap.vm", Paper: "54.0% − 11.5%", Lo: 0.15, Hi: inf, Unit: "%", Prec: 1,
			Measure: less(above3(warm, R), above3(warm, VM)),
			Note:    "Rattrap's share above 3.0x less the VM's. Smaller than the paper's gap: warm VM responses here are faster, relative to local execution, than the paper's, so more VM requests stay above 3.0x."},
	)
	add("Idle reclamation",
		Claim{ID: "reclaim.failure.vm", Paper: "9.7% with runtimes kept warm", Lo: 0.3, Hi: 0.6, Unit: "%", Prec: 1,
			Measure: fail(reclaimed, VM),
			Note:    "Nearly half: most sessions wait out a VM boot. The band is this reproduction's, not the paper's."},
		Claim{ID: "reclaim.failure.rattrap", Paper: "1.3% with runtimes kept warm", Lo: 0, Hi: 0.15, Unit: "%", Prec: 1,
			Measure: fail(reclaimed, R),
			Note:    "Rattrap's 2 s boot absorbs cold sessions: it fails no more often than fig11.failure.vm lets a warm VM cloud fail."},
		Claim{ID: "reclaim.above3.vm", Paper: "11.5%", Lo: 0.065, Hi: 0.165, Unit: "%", Prec: 1,
			Measure: above3(reclaimed, VM),
			Note:    "Within 5 points of the paper's Figure 11 VM share, which fig11.above3-gap.vm misses with runtimes kept warm."},
		Claim{ID: "reclaim.failure-rise.vm", Paper: "not in the paper", Lo: 1, Hi: inf, Open: true, Unit: "x", Prec: 1,
			Measure: over(fail(reclaimed, VM), fail(warm, VM)),
			Note:    "The VM's failure rate with reclamation over its rate without (fig11.failure.vm)."},
		Claim{ID: "reclaim.failure-ratio", Paper: "not in the paper", Lo: 2, Hi: inf, Unit: "x", Prec: 1,
			Measure: over(fail(reclaimed, VM), fail(reclaimed, R)),
			Note:    "The VM's failure rate with reclamation over Rattrap's."},
	)
	return cs
}
