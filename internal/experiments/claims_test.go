package experiments

import (
	"strings"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/host"
	"rattrap/internal/workload"
)

// TestClaimsNameTheirID evaluates the claims over doctored oracles, with no
// simulation run: the undoctored oracle passes, and one pushed out of a
// band fails naming each row it broke, with the measured value and the band.
// Every id is one row's, in an artefact EXPERIMENTS.md renders.
func TestClaimsNameTheirID(t *testing.T) {
	artefacts := make(map[string]bool)
	for _, a := range Artefacts {
		artefacts[a.Name] = true
	}
	seen := make(map[string]bool)
	for _, c := range Claims {
		if seen[c.ID] || !artefacts[c.Artefact] {
			t.Fatalf("claim %s: id used twice, or no artefact named %q", c.ID, c.Artefact)
		}
		seen[c.ID] = true
	}

	tableI := func(vmSetup time.Duration) *Oracle {
		return &Oracle{TableI: &TableI{Rows: []TableIRow{
			{Runtime: "Android VM", Setup: vmSetup, MemoryMB: 512, VCPUs: 1, Disk: 1136 * host.MB},
			{Runtime: "CAC (non-optimized)", Setup: 6680 * time.Millisecond, MemoryMB: 111, VCPUs: 1, Disk: 1055 * host.MB},
			{Runtime: "CAC", Setup: 1730 * time.Millisecond, MemoryMB: 96, VCPUs: 1, Disk: 7 * host.MB},
		}}}
	}
	figure11 := func(rattrapFailure float64) *Oracle {
		r, wo, vm := core.KindRattrap, core.KindRattrapWO, core.KindVM
		return &Oracle{Figure11: &Figure11{
			Speedups:    map[core.Kind][]float64{r: make([]float64, 82), wo: make([]float64, 82), vm: make([]float64, 82)},
			FailureRate: map[core.Kind]float64{r: rattrapFailure, wo: 0.024, vm: 0.073},
			Above3:      map[core.Kind]float64{r: 0.524, wo: 0.524, vm: 0.22},
			Kinds:       []core.Kind{r, wo, vm},
		}}
	}
	figure10 := func(rattrapChess float64) *Oracle {
		r, wo, vm := core.KindRattrap, core.KindRattrapWO, core.KindVM
		f := &Figure10{Norm: make(map[string]map[string]map[core.Kind]float64),
			Profiles: []string{"LAN WiFi", "3G"}, Kinds: []core.Kind{r, wo, vm}}
		for _, app := range workload.Apps() {
			f.Order = append(f.Order, app.Name())
			f.Norm[app.Name()] = map[string]map[core.Kind]float64{
				"LAN WiFi": {r: 0.15, wo: 0.38, vm: 0.52},
				"3G":       {r: 1, wo: 1, vm: 1}, // run locally on every platform
			}
		}
		f.Norm[workload.NameChess]["LAN WiFi"][r] = rattrapChess
		return &Oracle{Figure10: f}
	}
	for _, tc := range []struct {
		name, artefact string
		good, bad      *Oracle
		want           []string
	}{
		{"VM setup halved", "Table I", tableI(29820 * time.Millisecond), tableI(14910 * time.Millisecond), []string{
			"table1.setup.vm = 14.91 s, band 25–33 s",
			"table1.setup-speedup.wo = 2.23x, band 3.5–5x",
			"table1.setup-speedup.rattrap = 8.6x, band 13–20x",
		}},
		{"Rattrap chess energy near the VM", "Figure 10", figure10(0.15), figure10(0.45), []string{
			"fig10.order = -0.070, band > 0",
			"fig10.advantage.ChessGame.lan = 1.16x, band ≥ 1.2x",
		}},
		{"Rattrap fails more often than the VM", "Figure 11", figure11(0), figure11(0.10), []string{
			"fig11.failure.rattrap = 10.0%, band 0–3%",
			"fig11.failure-order.wo = -7.6%, band ≥ 0%",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cs []Claim
			for _, c := range Claims {
				if c.Artefact == tc.artefact {
					cs = append(cs, c)
				}
			}
			if err := Check(tc.good, cs); err != nil {
				t.Fatalf("undoctored oracle: %v", err)
			}
			err := Check(tc.bad, cs)
			if err == nil {
				t.Fatal("doctored oracle passed every claim")
			}
			if n := strings.Count(err.Error(), ", band "); n != len(tc.want) {
				t.Errorf("%d claims failed, want %d: %v", n, len(tc.want), err)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error does not name %q: %v", w, err)
				}
			}
		})
	}
}
