package experiments

import (
	"strings"
	"testing"

	"rattrap/internal/core"
	"rattrap/internal/workload"
)

// TestRendersContainEveryRow exercises the text renderers end to end on
// one shared run (they are the harness's user-visible output).
func TestRendersContainEveryRow(t *testing.T) {
	f, err := RunCharacterization(seed)
	if err != nil {
		t.Fatal(err)
	}
	out1 := render(f.Figure1Tables())
	for _, app := range f.Order {
		if !strings.Contains(out1, "Figure 1("+app+")") {
			t.Errorf("figure 1 render missing %s", app)
		}
	}
	if !strings.Contains(out1, "FAIL") {
		t.Error("figure 1 render shows no offloading failures")
	}
	out2 := render(f.Figure2Tables())
	if !strings.Contains(out2, "CPU(%)") || !strings.Contains(out2, "read(MB/s)") {
		t.Error("figure 2 render missing columns")
	}
	out3 := render(f.Figure3Tables())
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
	out := render(f.Tables())
	if !strings.Contains(out, "Local") || !strings.Contains(out, "0.150") {
		t.Fatalf("render:\n%s", out)
	}
	// The energy advantage is the fig10.advantage claim's measure.
	const id = "fig10.advantage." + workload.NameChess + ".lan"
	for _, c := range Claims {
		if c.ID != id {
			continue
		}
		if adv := c.Measure(&Oracle{Figure10: f}); adv < 3.4 || adv > 3.5 {
			t.Fatalf("advantage = %v, want 0.52/0.15", adv)
		}
		return
	}
	t.Fatalf("no claim %s", id)
}

func TestObservation4Render(t *testing.T) {
	o, err := RunObservation4(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := render(o.Tables())
	for _, want := range []string{"771", "68.", "87."} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
