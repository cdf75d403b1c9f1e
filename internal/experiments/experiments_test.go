package experiments

import (
	"strings"
	"testing"

	"rattrap/internal/core"
	"rattrap/internal/metrics"
	"rattrap/internal/netsim"
	"rattrap/internal/workload"
)

const seed = 42

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
