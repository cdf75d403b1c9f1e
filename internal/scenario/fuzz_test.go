package scenario

import (
	"errors"
	"os"
	"testing"
)

// FuzzScenarioDecode pins the decoder's contract on adversarial input:
// Decode never panics, never hangs, and every rejection is a typed
// *ParseError or *SchemaError. The corpus seeds every
// checked-in scenario, benchmark/scenarios/ included, plus a spread of
// malformed shapes — truncated documents, out-of-range values, unknown
// event kinds, oversize fleets.
func FuzzScenarioDecode(f *testing.F) {
	for _, file := range checkedInScenarios(f) {
		if data, err := os.ReadFile(file); err == nil {
			f.Add(data)
		}
	}
	for _, seed := range []string{
		"",
		"name: x\n",
		minimalScenario,
		minimalScenario + "events:\n  - at: 1s\n    action: warp-core-breach\n",
		minimalScenario + "assertions:\n  - type: success-rate\n    min: 2\n",
		"name: x\nfleet:\n  - cohort: a\n    devices: 99999999999\n    duration: 1s\n",
		"name: x\nfleet:\n  - cohort: a\n    devices: 1\n    duration: 1000000h\n",
		"name: x\nshards: -3\n",
		"name: x\nseed: not-a-number\n",
		"a: [1, [2]]\n",
		"a: {b: 1}\n",
		"\ta: 1\n",
		"%YAML 1.2\n",
		"a: &anchor 1\n",
		"a: \"unterminated\n",
		"- just\n- a\n- sequence\n",
		"name: x\nfleet:\n  - cohort: a\n    devices: 1\n    duration: 1s\n    network: \"\\q\"\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scn, err := Decode(data)
		if err != nil {
			var pe *ParseError
			var se *SchemaError
			if !errors.As(err, &pe) && !errors.As(err, &se) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			if scn != nil {
				t.Fatal("Decode returned both a scenario and an error")
			}
			return
		}
		// Anything the decoder accepts must already be clamped to the
		// schema limits — the runner trusts these bounds.
		if scn == nil {
			t.Fatal("Decode returned nil, nil")
		}
		if scn.Name == "" {
			t.Error("accepted scenario without a name")
		}
		if scn.Shards < 1 || scn.Shards > MaxShards {
			t.Errorf("accepted shards %d", scn.Shards)
		}
		if len(scn.Fleet) == 0 || len(scn.Fleet) > MaxCohorts {
			t.Errorf("accepted %d cohorts", len(scn.Fleet))
		}
		total := 0
		for _, c := range scn.Fleet {
			if c.Devices < 1 || c.Devices > MaxCohortDevices {
				t.Errorf("accepted cohort %q with %d devices", c.Name, c.Devices)
			}
			if c.Duration <= 0 {
				t.Errorf("accepted cohort %q with duration %v", c.Name, c.Duration)
			}
			if len(c.Apps) == 0 {
				t.Errorf("accepted cohort %q with no apps", c.Name)
			}
			total += c.Devices * c.RequestsPerDevice
		}
		if total > MaxTotalArrivals {
			t.Errorf("accepted %d total arrivals", total)
		}
		adds := 0
		for _, ev := range scn.Events {
			if ev.Kind == EvAddShard {
				adds++
			}
			if ev.Kind == EvKillShard && ev.Shard >= scn.Shards+adds {
				t.Errorf("accepted kill-shard %d with %d shards and %d added before it", ev.Shard, scn.Shards, adds)
			}
			if ev.Kind == EvFaultPlan {
				if _, ok := planByName(ev.Plan, scn.Seed); !ok {
					t.Errorf("accepted unknown fault plan %q", ev.Plan)
				}
			}
		}
	})
}
