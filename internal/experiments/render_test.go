package experiments

import (
	"strings"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/trace"
	"rattrap/internal/workload"
)

// TestRendersContainEveryRow exercises the text renderers end to end on
// one shared run (they are the harness's user-visible output).
func TestRendersContainEveryRow(t *testing.T) {
	f3, err := RunFigure3(seed)
	if err != nil {
		t.Fatal(err)
	}
	f1 := &Figure1{PerWorkload: f3.PerWorkload, Order: f3.Order}
	f2 := &Figure2{PerWorkload: f3.PerWorkload, Order: f3.Order}

	out1 := f1.Render()
	for _, app := range f3.Order {
		if !strings.Contains(out1, "Figure 1("+app+")") {
			t.Errorf("figure 1 render missing %s", app)
		}
	}
	if !strings.Contains(out1, "FAIL") {
		t.Error("figure 1 render shows no offloading failures")
	}
	out2 := f2.Render()
	if !strings.Contains(out2, "CPU(%)") || !strings.Contains(out2, "read(MB/s)") {
		t.Error("figure 2 render missing columns")
	}
	out3 := f3.Render()
	if !strings.Contains(out3, "code frac") || !strings.Contains(out3, "vm-1") {
		t.Errorf("figure 3 render incomplete:\n%s", out3)
	}
}

func TestFigure10Render(t *testing.T) {
	f := &Figure10{
		Norm: map[string]map[string]map[core.Kind]float64{
			workload.NameChess: {
				"LAN WiFi": {core.KindRattrap: 0.15, core.KindRattrapWO: 0.38, core.KindVM: 0.52},
			},
		},
		Order:    []string{workload.NameChess},
		Profiles: []string{"LAN WiFi"},
		Kinds:    []core.Kind{core.KindRattrap, core.KindRattrapWO, core.KindVM},
	}
	out := f.Render()
	if !strings.Contains(out, "Local") || !strings.Contains(out, "0.150") {
		t.Fatalf("render:\n%s", out)
	}
	if adv := f.EnergyAdvantage(workload.NameChess, "LAN WiFi"); adv < 3.4 || adv > 3.5 {
		t.Fatalf("advantage = %v, want 0.52/0.15", adv)
	}
}

func TestObservation4Render(t *testing.T) {
	o, err := RunObservation4(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := o.Render()
	for _, want := range []string{"771", "68.", "87."} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTraceWithReclamationDegradesVMMost(t *testing.T) {
	// The just-in-time ablation: with idle reclamation on, the VM cloud's
	// failure rate explodes while Rattrap stays moderate.
	run := func(idle bool) (*Figure11, error) {
		var mod func(*core.Config)
		if idle {
			mod = func(c *core.Config) { c.IdleTimeout = 2 * time.Minute }
		}
		return RunTraceOpts(trace.DefaultConfig(seed), mod)
	}
	warm, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FailureRate[core.KindVM] <= warm.FailureRate[core.KindVM] {
		t.Errorf("reclamation did not hurt the VM cloud: %.2f vs %.2f",
			cold.FailureRate[core.KindVM], warm.FailureRate[core.KindVM])
	}
	if cold.FailureRate[core.KindVM] < 2*cold.FailureRate[core.KindRattrap] {
		t.Errorf("VM cold-session failures (%.2f) should dwarf Rattrap's (%.2f)",
			cold.FailureRate[core.KindVM], cold.FailureRate[core.KindRattrap])
	}
}
