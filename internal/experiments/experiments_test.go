package experiments

import (
	"strings"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/host"
	"rattrap/internal/metrics"
	"rattrap/internal/netsim"
	"rattrap/internal/workload"
)

const seed = 42

func TestTableIReproducesPaper(t *testing.T) {
	tab, err := RunTableI(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	vm, wo, cac := tab.Rows[0], tab.Rows[1], tab.Rows[2]
	// Paper: 28.72 s / 6.80 s / 1.75 s.
	if vm.Setup < 25*time.Second || vm.Setup > 33*time.Second {
		t.Errorf("VM setup %v, want ≈28.72s", vm.Setup)
	}
	if wo.Setup < 5500*time.Millisecond || wo.Setup > 8*time.Second {
		t.Errorf("CAC(W/O) setup %v, want ≈6.80s", wo.Setup)
	}
	if cac.Setup < 1400*time.Millisecond || cac.Setup > 2100*time.Millisecond {
		t.Errorf("CAC setup %v, want ≈1.75s", cac.Setup)
	}
	// Paper: 512 / 128-limit / 96 MB and 1.1 GB / 1.02 GB / 7.1 MB.
	if vm.MemoryMB != 512 || cac.MemoryMB > 96 || cac.MemoryMB < 90 {
		t.Errorf("memory: vm=%d cac=%d", vm.MemoryMB, cac.MemoryMB)
	}
	if float64(cac.Disk) > 7.1*float64(host.MB) {
		t.Errorf("CAC disk = %d bytes, want <7.1MB", cac.Disk)
	}
	if sav := 1 - float64(cac.Disk)/float64(vm.Disk); sav < 0.79 {
		t.Errorf("disk saving %.2f, want ≥0.79", sav)
	}
	if !strings.Contains(tab.Render(), "Android VM") {
		t.Error("render missing VM row")
	}
}

func TestFigure1ColdStartFailures(t *testing.T) {
	f, err := RunFigure1(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range f.Order {
		r := f.PerWorkload[app]
		if len(r.Records) != 20 {
			t.Fatalf("%s: %d records, want the first 20 requests", app, len(r.Records))
		}
		cold, warm, warmOK := 0, 0, 0
		for _, rec := range r.Records {
			if rec.Phases.RuntimePreparation > 20*time.Second {
				cold++
				if !rec.Failed() {
					t.Errorf("%s: cold request with ~30s prep did not fail (speedup %.2f)", app, rec.Speedup)
				}
			} else {
				warm++
				if !rec.Failed() {
					warmOK++
				}
			}
		}
		// Observation 1: each of the 5 VMs fails its first request.
		if cold != 5 {
			t.Errorf("%s: %d cold starts, want 5 (one per VM)", app, cold)
		}
		if warmOK < warm*3/4 {
			t.Errorf("%s: only %d/%d warm requests beat local execution", app, warmOK, warm)
		}
	}
}

func TestFigure2ServerLoadShape(t *testing.T) {
	f, err := RunFigure2(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range f.Order {
		r := f.PerWorkload[app]
		if len(r.ServerCPU) < 30 {
			t.Fatalf("%s: horizon too short: %d s", app, len(r.ServerCPU))
		}
		// Observation 2: during VM boot (0-30 s) the server shows load in
		// every workload — both CPU and disk reads.
		bootCPU := metrics.Mean(r.ServerCPU[:30])
		bootRead := metrics.Mean(r.ServerIORead[:30])
		if bootCPU < 5 {
			t.Errorf("%s: boot-phase CPU %.1f%%, want visible load", app, bootCPU)
		}
		if bootRead < 5 {
			t.Errorf("%s: boot-phase disk read %.1f MB/s, want image streaming", app, bootRead)
		}
	}
	// I/O-heavy VirusScan shows more post-boot reading than Linpack.
	vs := f.PerWorkload[workload.NameVirusScan]
	lp := f.PerWorkload[workload.NameLinpack]
	vsRead := metrics.Sum(vs.ServerIORead[31:])
	lpRead := metrics.Sum(lp.ServerIORead[31:min(len(lp.ServerIORead), len(vs.ServerIORead))])
	if vsRead <= lpRead {
		t.Errorf("VirusScan post-boot reads (%.0f) not above Linpack (%.0f)", vsRead, lpRead)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFigure3CodeDominatesForPureCompute(t *testing.T) {
	f, err := RunFigure3(seed)
	if err != nil {
		t.Fatal(err)
	}
	// Observation 3: for workloads with no file transfer, mobile code is
	// more than 50% of migrated data; for file-heavy ones it is not.
	for _, app := range []string{workload.NameChess, workload.NameLinpack} {
		if frac := f.CodeFraction(app); frac <= 0.5 {
			t.Errorf("%s: code fraction %.2f, want >0.5", app, frac)
		}
	}
	for _, app := range []string{workload.NameOCR, workload.NameVirusScan} {
		if frac := f.CodeFraction(app); frac >= 0.5 {
			t.Errorf("%s: code fraction %.2f, want <0.5", app, frac)
		}
	}
	// Every VM received its own copy of the code.
	for _, app := range f.Order {
		for _, info := range f.PerWorkload[app].Runtimes {
			if info.Traffic.CodeUp == 0 {
				t.Errorf("%s: VM %s never received code", app, info.CID)
			}
		}
	}
}

func TestObservation4ReproducesPaper(t *testing.T) {
	o, err := RunObservation4(seed)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 771 MB of 1.1 GB (68.4%) never accessed; /system 87.4%.
	if o.NeverAccessedBytes != 771*host.MB {
		t.Errorf("never accessed = %d MB, want exactly 771", o.NeverAccessedBytes/host.MB)
	}
	if o.NeverFraction < 0.67 || o.NeverFraction > 0.70 {
		t.Errorf("never fraction = %.3f, want ≈0.684", o.NeverFraction)
	}
	if o.SystemFraction < 0.86 || o.SystemFraction > 0.88 {
		t.Errorf("/system fraction = %.3f, want ≈0.874", o.SystemFraction)
	}
}

func TestComparisonReproducesFigure9AndTableII(t *testing.T) {
	c, err := RunComparison(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range c.Order {
		// Runtime preparation: 4.14–4.71x (W/O), 16.29–16.98x (Rattrap).
		if sp := c.PrepSpeedup(app, core.KindRattrapWO); sp < 3.5 || sp > 5.5 {
			t.Errorf("%s: W/O prep speedup %.2f, paper 4.14-4.71", app, sp)
		}
		if sp := c.PrepSpeedup(app, core.KindRattrap); sp < 13 || sp > 21 {
			t.Errorf("%s: Rattrap prep speedup %.2f, paper 16.29-16.98", app, sp)
		}
		// Data transfer improves only with the code cache.
		if sp := c.TransferSpeedup(app, core.KindRattrapWO); sp < 0.85 || sp > 1.25 {
			t.Errorf("%s: W/O transfer speedup %.2f, want ≈1 (no code cache)", app, sp)
		}
	}
	// Computation execution: batch workloads 1.02–1.13x for W/O; Rattrap
	// up to 1.40x with VirusScan profiting most (in-memory offloading I/O).
	for _, app := range []string{workload.NameOCR, workload.NameVirusScan, workload.NameLinpack} {
		if sp := c.ComputeSpeedup(app, core.KindRattrapWO); sp < 1.0 || sp > 1.30 {
			t.Errorf("%s: W/O compute speedup %.2f, paper 1.02-1.13", app, sp)
		}
	}
	vsR := c.ComputeSpeedup(workload.NameVirusScan, core.KindRattrap)
	lpR := c.ComputeSpeedup(workload.NameLinpack, core.KindRattrap)
	if vsR < 1.10 || vsR > 1.65 {
		t.Errorf("VirusScan Rattrap compute speedup %.2f, paper ≈1.40", vsR)
	}
	if lpR >= vsR {
		t.Errorf("Linpack compute speedup (%.2f) should be smaller than VirusScan's (%.2f)", lpR, vsR)
	}
	// Transfer speedups with the code cache: 1.17–2.04x band (chess can
	// exceed it slightly since code dominates its migrated data).
	for _, app := range c.Order {
		sp := c.TransferSpeedup(app, core.KindRattrap)
		if sp < 1.05 || sp > 3.2 {
			t.Errorf("%s: Rattrap transfer speedup %.2f, want within the code-cache band", app, sp)
		}
	}
	// Table II: ChessGame uploads ≈ 4788 / ≈14011 / ≈13301 KB.
	chR := c.Upload(workload.NameChess, core.KindRattrap)
	chV := c.Upload(workload.NameChess, core.KindVM)
	if chR < 4200 || chR > 5400 {
		t.Errorf("ChessGame Rattrap upload %.0f KB, paper 4788", chR)
	}
	if chV < 12000 || chV > 15500 {
		t.Errorf("ChessGame VM upload %.0f KB, paper 13301", chV)
	}
	// Linpack: ≈169 vs ≈776 KB.
	lpRu := c.Upload(workload.NameLinpack, core.KindRattrap)
	lpV := c.Upload(workload.NameLinpack, core.KindVM)
	if lpRu < 140 || lpRu > 210 {
		t.Errorf("Linpack Rattrap upload %.0f KB, paper 169", lpRu)
	}
	if lpV < 650 || lpV > 900 {
		t.Errorf("Linpack VM upload %.0f KB, paper 776", lpV)
	}
	// "Once and for all": exactly one warehouse entry per app run.
	for _, app := range c.Order {
		if entries, _ := c.WarehouseStats(app); entries != 1 {
			t.Errorf("%s: %d warehouse entries, want 1", app, entries)
		}
	}
	if !strings.Contains(c.TableIIRender(), "upload") || !strings.Contains(c.Figure9Render(), "Rattrap(W/O)") {
		t.Error("render output incomplete")
	}
}

func TestEnergyOrderingOnWiFi(t *testing.T) {
	// One representative Figure 10 cell per claim, kept small for test
	// speed: chess on LAN, energy must order Rattrap < W/O < VM, all
	// cheaper than local.
	norm := make(map[core.Kind]float64)
	for _, kind := range []core.Kind{core.KindRattrap, core.KindRattrapWO, core.KindVM} {
		cfg := DefaultRun(kind, netsim.LANWiFi(), workload.NameChess, seed)
		cfg.RequestsPerDevice = 12
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		norm[kind] = r.MeanEnergyNormalized()
	}
	if !(norm[core.KindRattrap] < norm[core.KindRattrapWO] && norm[core.KindRattrapWO] < norm[core.KindVM]) {
		t.Fatalf("energy ordering violated: %+v", norm)
	}
	if norm[core.KindVM] >= 1 {
		t.Fatalf("VM offloading energy %.2f should still beat local on LAN over a long run", norm[core.KindVM])
	}
	if adv := norm[core.KindVM] / norm[core.KindRattrap]; adv < 1.2 {
		t.Fatalf("Rattrap energy advantage %.2fx, paper reports 1.37x for ChessGame", adv)
	}
}

func TestEnergyGapShrinksOnBadNetworks(t *testing.T) {
	// Paper: for OCR, the VM-vs-Rattrap gap narrows as the network
	// degrades; on 3G the decision engine sends file-heavy work local.
	gap := func(profile netsim.Profile) float64 {
		var r, v float64
		for _, kind := range []core.Kind{core.KindRattrap, core.KindVM} {
			cfg := DefaultRun(kind, profile, workload.NameOCR, seed)
			cfg.RequestsPerDevice = 8
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if kind == core.KindRattrap {
				r = res.MeanEnergyNormalized()
			} else {
				v = res.MeanEnergyNormalized()
			}
		}
		return v - r
	}
	lan := gap(netsim.LANWiFi())
	threeG := gap(netsim.ThreeG())
	if threeG >= lan {
		t.Fatalf("OCR energy gap on 3G (%.3f) not smaller than on LAN (%.3f)", threeG, lan)
	}
	if threeG != 0 {
		t.Fatalf("on 3G the decision engine should run OCR locally on all platforms (gap %.3f)", threeG)
	}
}

func TestFigure11ReproducesPaper(t *testing.T) {
	f, err := RunFigure11(seed)
	if err != nil {
		t.Fatal(err)
	}
	r, wo, vm := core.KindRattrap, core.KindRattrapWO, core.KindVM
	if f.Events == 0 || len(f.Speedups[r]) < 30 {
		t.Fatalf("trace too small: %d chess requests", len(f.Speedups[r]))
	}
	// Failure rates: 1.3% / 7.7% / 9.7% — ordering and magnitudes.
	if !(f.FailureRate[r] <= f.FailureRate[wo] && f.FailureRate[wo] <= f.FailureRate[vm]) {
		t.Errorf("failure ordering violated: %v / %v / %v", f.FailureRate[r], f.FailureRate[wo], f.FailureRate[vm])
	}
	if f.FailureRate[r] > 0.03 {
		t.Errorf("Rattrap failures %.1f%%, paper 1.3%%", f.FailureRate[r]*100)
	}
	if f.FailureRate[vm] < 0.03 || f.FailureRate[vm] > 0.15 {
		t.Errorf("VM failures %.1f%%, paper 9.7%%", f.FailureRate[vm]*100)
	}
	// Fraction above 3.0x: 54.0% / 50.8% / 11.5%. Rattrap and W/O close
	// together and far above VM.
	if f.Above3[r] < 0.40 || f.Above3[r] > 0.65 {
		t.Errorf("Rattrap >3x = %.1f%%, paper 54.0%%", f.Above3[r]*100)
	}
	if diff := f.Above3[r] - f.Above3[wo]; diff < -0.08 || diff > 0.12 {
		t.Errorf("Rattrap (%.2f) and W/O (%.2f) should be close", f.Above3[r], f.Above3[wo])
	}
	if f.Above3[vm] > f.Above3[r]-0.15 {
		t.Errorf("VM >3x = %.1f%%, want well below Rattrap's %.1f%%", f.Above3[vm]*100, f.Above3[r]*100)
	}
	if !strings.Contains(f.Render(), "failure rate") {
		t.Error("render incomplete")
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	run := func() string {
		r, err := Run(DefaultRun(core.KindRattrap, netsim.LANWiFi(), workload.NameChess, 7))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, rec := range r.Records {
			b.WriteString(rec.Device)
			b.WriteString(rec.End.String())
			b.WriteString(metrics.F(rec.Speedup, 6))
		}
		return b.String()
	}
	if run() != run() {
		t.Fatal("identical seeds produced different runs")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := DefaultRun(core.KindRattrap, netsim.LANWiFi(), "NotAnApp", 1)
	if _, err := Run(bad); err == nil {
		t.Error("unknown app accepted")
	}
}
