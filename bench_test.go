// Package rattrap_test benchmarks regenerate every table and figure of the
// paper's evaluation (run `go test -bench=. -benchmem`). Each benchmark
// executes the corresponding experiment on the discrete-event engine and
// reports the headline quantities as custom metrics, so `bench_output.txt`
// doubles as a compact reproduction record. The *shapes* are what is
// asserted (in internal/experiments tests); benchmarks report the values.
package rattrap_test

import (
	"testing"
	"time"

	"rattrap/internal/container"
	"rattrap/internal/core"
	"rattrap/internal/experiments"
	"rattrap/internal/host"
	"rattrap/internal/image"
	"rattrap/internal/kernel"
	"rattrap/internal/metrics"
	"rattrap/internal/netsim"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
	"rattrap/internal/workload"
)

const benchSeed = 42

// BenchmarkTableI regenerates Table I: setup time, memory and disk of the
// three code runtime environments.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTableI(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			vm, wo, cac := t.Rows[0], t.Rows[1], t.Rows[2]
			b.ReportMetric(vm.Setup.Seconds(), "vm-setup-s")
			b.ReportMetric(wo.Setup.Seconds(), "wo-setup-s")
			b.ReportMetric(cac.Setup.Seconds(), "cac-setup-s")
			b.ReportMetric(float64(vm.MemoryMB), "vm-mem-MB")
			b.ReportMetric(float64(cac.MemoryMB), "cac-mem-MB")
			b.ReportMetric(float64(cac.Disk)/float64(host.MB), "cac-disk-MB")
			b.ReportMetric(vm.Setup.Seconds()/cac.Setup.Seconds(), "setup-speedup-x")
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1: phase details and speedups for
// the first 20 requests per workload on the VM-based cloud.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure1(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			chess := f.PerWorkload[workload.NameChess]
			fails := 0
			for _, rec := range chess.Records {
				if rec.Failed() {
					fails++
				}
			}
			b.ReportMetric(float64(fails), "chess-cold-failures")
			b.ReportMetric(metrics.Mean(chess.Speedups()), "chess-mean-speedup-x")
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: server CPU and disk timelines.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure2(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ocr := f.PerWorkload[workload.NameOCR]
			b.ReportMetric(metrics.Mean(ocr.ServerCPU[:30]), "ocr-bootphase-cpu-pct")
			b.ReportMetric(metrics.Max(ocr.ServerIORead), "ocr-peak-read-MBps")
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: migrated-data composition per VM.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure3(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(f.CodeFraction(workload.NameChess), "chess-code-frac")
			b.ReportMetric(f.CodeFraction(workload.NameOCR), "ocr-code-frac")
			b.ReportMetric(f.CodeFraction(workload.NameLinpack), "linpack-code-frac")
		}
	}
}

// BenchmarkObservation4 regenerates the §III-E redundancy profiling.
func BenchmarkObservation4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o, err := experiments.RunObservation4(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(o.NeverFraction*100, "never-accessed-pct")
			b.ReportMetric(o.SystemFraction*100, "system-share-pct")
		}
	}
}

// BenchmarkFigure9TableII regenerates Figure 9 (normalized phase means)
// and Table II (migrated data) for all platforms.
func BenchmarkFigure9TableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunComparison(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(c.PrepSpeedup(workload.NameOCR, core.KindRattrapWO), "wo-prep-speedup-x")
			b.ReportMetric(c.PrepSpeedup(workload.NameOCR, core.KindRattrap), "rattrap-prep-speedup-x")
			b.ReportMetric(c.ComputeSpeedup(workload.NameVirusScan, core.KindRattrap), "virus-compute-speedup-x")
			b.ReportMetric(c.TransferSpeedup(workload.NameChess, core.KindRattrap), "chess-transfer-speedup-x")
			b.ReportMetric(c.Upload(workload.NameChess, core.KindRattrap), "chess-up-rattrap-KB")
			b.ReportMetric(c.Upload(workload.NameChess, core.KindVM), "chess-up-vm-KB")
		}
	}
}

// BenchmarkFigure10 regenerates the energy evaluation across network
// scenarios (the most expensive experiment: 48 platform runs).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure10(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(f.Norm[workload.NameChess]["LAN WiFi"][core.KindRattrap], "chess-lan-rattrap")
			b.ReportMetric(f.Norm[workload.NameChess]["LAN WiFi"][core.KindVM], "chess-lan-vm")
			b.ReportMetric(f.EnergyAdvantage(workload.NameChess, "LAN WiFi"), "chess-lan-advantage-x")
			b.ReportMetric(f.Norm[workload.NameOCR]["3G"][core.KindRattrap], "ocr-3g-rattrap")
		}
	}
}

// BenchmarkFigure11 regenerates the trace-based simulation.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure11(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(f.FailureRate[core.KindVM]*100, "vm-failure-pct")
			b.ReportMetric(f.FailureRate[core.KindRattrap]*100, "rattrap-failure-pct")
			b.ReportMetric(f.Above3[core.KindRattrap]*100, "rattrap-above3x-pct")
			b.ReportMetric(f.Above3[core.KindVM]*100, "vm-above3x-pct")
		}
	}
}

// --- ablations: the design choices DESIGN.md calls out, isolated ---

// BenchmarkAblationSharedLayerPageCache isolates the Shared Resource
// Layer's cache effect: optimized container boots with a warm versus cold
// shared layer.
func BenchmarkAblationSharedLayerPageCache(b *testing.B) {
	boot := func(warm bool) time.Duration {
		e := sim.NewEngine(benchSeed)
		pl := core.New(e, core.DefaultConfig(core.KindRattrap))
		if !warm {
			pl.Server.DropCaches()
		}
		var d time.Duration
		e.Spawn("boot", func(p *sim.Proc) {
			info, err := pl.BootRuntime(p)
			if err != nil {
				b.Fatal(err)
			}
			d = info.BootTime
		})
		e.Run()
		return d
	}
	for i := 0; i < b.N; i++ {
		warm := boot(true)
		cold := boot(false)
		if i == 0 {
			b.ReportMetric(warm.Seconds(), "warm-boot-s")
			b.ReportMetric(cold.Seconds(), "cold-boot-s")
		}
	}
}

// BenchmarkAblationCodeCache isolates the App Warehouse: total chess
// upload with and without the code cache (Rattrap vs Rattrap(W/O), both
// containers).
func BenchmarkAblationCodeCache(b *testing.B) {
	upload := func(kind core.Kind) float64 {
		r, err := experiments.Run(experiments.DefaultRun(kind, netsim.LANWiFi(), workload.NameChess, benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		return float64(r.DeviceTraffic.Up()) / 1024
	}
	for i := 0; i < b.N; i++ {
		with := upload(core.KindRattrap)
		without := upload(core.KindRattrapWO)
		if i == 0 {
			b.ReportMetric(with, "with-cache-KB")
			b.ReportMetric(without, "without-cache-KB")
			b.ReportMetric(without/with, "saving-x")
		}
	}
}

// BenchmarkAblationSharedOffloadIO isolates Sharing Offloading I/O: the
// VirusScan offloading-I/O time with the shared tmpfs layer versus the
// container's own disk-backed upper layer (Figure 7a vs 7b).
func BenchmarkAblationSharedOffloadIO(b *testing.B) {
	run := func(tmpfs bool) float64 {
		e := sim.NewEngine(benchSeed)
		h := host.New(e, host.CloudServer())
		k := kernel.New(e, h, "3.18.0")
		app, _ := workload.ByName(workload.NameVirusScan)
		reg := workload.NewRegistry()
		var ioSec float64
		e.Spawn("run", func(p *sim.Proc) {
			ioSec = execVirusScan(b, e, h, k, p, app, reg, tmpfs)
		})
		e.Run()
		return ioSec
	}
	for i := 0; i < b.N; i++ {
		shared := run(true)
		exclusive := run(false)
		if i == 0 {
			b.ReportMetric(shared, "shared-tmpfs-io-s")
			b.ReportMetric(exclusive, "exclusive-disk-io-s")
		}
	}
}

// BenchmarkDiscreteEventEngine measures the raw simulation substrate:
// events dispatched per second.
func BenchmarkDiscreteEventEngine(b *testing.B) {
	e := sim.NewEngine(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i)*time.Microsecond, func() {})
	}
	e.Run()
}

// BenchmarkChessSearch measures the real chess engine (the cloud-side
// computation of the games workload).
func BenchmarkChessSearch(b *testing.B) {
	app, _ := workload.ByName(workload.NameChess)
	reg := workload.NewRegistry()
	tasks := makeTasks(b, app, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Execute(tasks[i%len(tasks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOCRRecognize measures the real OCR pipeline.
func BenchmarkOCRRecognize(b *testing.B) {
	app, _ := workload.ByName(workload.NameOCR)
	reg := workload.NewRegistry()
	tasks := makeTasks(b, app, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Execute(tasks[i%len(tasks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVirusScan measures the real Aho-Corasick scanner.
func BenchmarkVirusScan(b *testing.B) {
	app, _ := workload.ByName(workload.NameVirusScan)
	reg := workload.NewRegistry()
	tasks := makeTasks(b, app, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Execute(tasks[i%len(tasks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinpackSolve measures the real LU solver.
func BenchmarkLinpackSolve(b *testing.B) {
	app, _ := workload.ByName(workload.NameLinpack)
	reg := workload.NewRegistry()
	tasks := makeTasks(b, app, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Execute(tasks[i%len(tasks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ---

func makeTasks(b *testing.B, app workload.App, n int) []workload.Task {
	b.Helper()
	rng := newBenchRand()
	tasks := make([]workload.Task, n)
	for i := range tasks {
		tasks[i] = app.NewTask(rng, i)
	}
	return tasks
}

func execVirusScan(b *testing.B, e *sim.Engine, h *host.Host, k *kernel.Kernel, p *sim.Proc, app workload.App, reg *workload.Registry, tmpfs bool) float64 {
	b.Helper()
	shared := image.AndroidX86().Customized().BuildLayer("shared-android", true)
	shared.Layer.WarmCacheOn(h)
	c, err := container.Create(p, h, k, container.DefaultConfig("abl", 96),
		unionfs.NewLayer("abl-delta", false), shared.Layer)
	if err != nil {
		b.Fatal(err)
	}
	if err := loadACD(e, k, p); err != nil {
		b.Fatal(err)
	}
	rt, err := bootCustomized(p, c, shared)
	if err != nil {
		b.Fatal(err)
	}
	if tmpfs {
		t := unionfs.NewTmpfs("oio")
		m, _ := unionfs.NewMount(h, "oio", t)
		rt.SetOffloadFS(m)
	}
	task := app.NewTask(newBenchRand(), 0)
	if err := rt.LoadCode(p, task.App, app.CodeSize(), false); err != nil {
		b.Fatal(err)
	}
	res, err := rt.Execute(p, task.App, task, reg)
	if err != nil {
		b.Fatal(err)
	}
	return res.IOSeconds
}

// BenchmarkAblationIdleReclamation studies just-in-time provisioning: with
// the Monitor & Scheduler reclaiming runtimes idle for 2 minutes, most
// sessions start cold — Rattrap's 2 s boot absorbs that; the VM cloud's
// 30 s boot turns nearly half the requests into offloading failures.
func BenchmarkAblationIdleReclamation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := traceDefault()
		f, err := experiments.RunTraceOpts(cfg, func(c *core.Config) {
			c.IdleTimeout = 2 * time.Minute
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(f.FailureRate[core.KindRattrap]*100, "rattrap-failure-pct")
			b.ReportMetric(f.FailureRate[core.KindVM]*100, "vm-failure-pct")
			b.ReportMetric(f.Above3[core.KindVM]*100, "vm-above3x-pct")
		}
	}
}
