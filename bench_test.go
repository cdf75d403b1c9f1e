// Package rattrap_test holds two ablation benchmarks of the §IV design
// choices, the Shared Resource Layer's page cache and Sharing Offloading
// I/O, and timings of the engine and the real workload kernels (run `go test
// -bench=. -benchmem`). The paper's tables and figures are `rattrap-bench`'s
// oracle, and their claims, the App Warehouse's upload saving among them,
// are experiments.Claims, held in tier-1 by `go test ./cmd/rattrap-bench`.
package rattrap_test

import (
	"testing"
	"time"

	"rattrap/internal/container"
	"rattrap/internal/core"
	"rattrap/internal/host"
	"rattrap/internal/image"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
	"rattrap/internal/workload"
)

const benchSeed = 42

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
	if err := rt.LoadCode(p, task.App, app.CodeSize()); err != nil {
		b.Fatal(err)
	}
	res, err := rt.Execute(p, task.App, task, reg)
	if err != nil {
		b.Fatal(err)
	}
	return res.IOSeconds
}
