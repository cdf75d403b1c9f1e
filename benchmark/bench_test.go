package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON fails when the names the runner emits
// (spec.go) and the names in BENCHMARK.json differ, when a name or unit has a
// character the contract does not allow, or when a limit is exceeded.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	var have []string
	for k := range keys {
		have = append(have, k)
	}
	sort.Strings(have)
	if got, want := have, []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !equal(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec.go says %d", bj.RunSeconds, runSeconds)
	}
	var declared []workloadSpec
	for _, w := range workloads {
		if w.Declared {
			declared = append(declared, w)
		}
	}
	if len(bj.Workloads) != len(declared) || len(bj.Workloads) < 2 || len(bj.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared in spec.go (2 to 8 allowed)", len(bj.Workloads), len(declared))
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go (at most 16)", len(bj.EndToEnd), len(endToEnd))
	}
	if len(bj.PerLayer) != len(perLayer) || len(bj.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q has a character outside letters, digits, _ . - or is too long", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bj.Workloads {
		name(w.Name)
		if w.Name != declared[i].Name || w.Why != declared[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in spec.go (or their reasons differ)", i, w.Name, declared[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for i, m := range bj.EndToEnd {
		name(m.Name)
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in spec.go", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q or bound %g outside the contract", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range bj.PerLayer {
		name(m.Name)
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in spec.go", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q outside the contract", m.Name, m.Unit)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// emits checks that a run reported exactly the metrics of list.
func emits(t *testing.T, res *runResult, list []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(list) {
		t.Errorf("%s reported %d metrics, spec.go lists %d", res.Workload, len(res.Metrics), len(list))
	}
	for _, m := range list {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("%s did not report %s", res.Workload, m.Name)
		}
	}
}

// TestSmoke runs every workload untraced, and one workload of each kind
// traced, at smoke scale: it checks the plumbing and the correctness checks,
// not the numbers.
func TestSmoke(t *testing.T) {
	t.Parallel() // with the determinism test: smoke numbers mean nothing anyway
	out := t.TempDir()
	for _, w := range workloads {
		res, err := runWorkload(options{workload: w.Name, seed: defaultSeed, seconds: runSeconds, smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		emits(t, res, endToEnd)
		for _, m := range endToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s is %g, an end-to-end metric is never 0", w.Name, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
	for _, name := range []string{"tcp-cold", "sim-churn"} {
		res, err := runWorkload(options{workload: name, seed: defaultSeed, seconds: runSeconds, smoke: true, trace: true, out: out})
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %v", name, res.Problems)
		}
		emits(t, res, perLayer)
	}
	if _, err := os.Stat(out + "/trace.json"); err != nil {
		t.Errorf("the traced run wrote no trace.json: %v", err)
	}
}

// TestSimChurnDeterministic checks that two runs of sim-churn at one seed
// give identical virtual metrics and the same report digest.
func TestSimChurnDeterministic(t *testing.T) {
	t.Parallel()
	var runs [2]*runResult
	for i := range runs {
		var err error
		if runs[i], err = runWorkload(options{workload: "sim-churn", seed: 7, seconds: runSeconds, smoke: true}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := runs[0], runs[1]
	if a.ReportDigest == "" || a.ReportDigest != b.ReportDigest || a.VirtP50Ms != b.VirtP50Ms || a.VirtP99Ms != b.VirtP99Ms {
		t.Errorf("two runs at seed 7 differ: digest %s vs %s, p50 %g vs %g, p99 %g vs %g",
			a.ReportDigest, b.ReportDigest, a.VirtP50Ms, b.VirtP50Ms, a.VirtP99Ms, b.VirtP99Ms)
	}
}

// TestYardstickOpAllocations pins what a window's allocation counts are
// relieved of to what an op really allocates.
func TestYardstickOpAllocations(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	const ops = 200
	y.op() // the hand-over goroutine's first run
	before := readUsage()
	for i := 0; i < ops; i++ {
		y.op()
	}
	after := readUsage()
	if got := int(after.mallocs-before.mallocs) / ops; got != yardMallocsPerOp {
		t.Errorf("an op makes %d allocations, yardMallocsPerOp says %d", got, yardMallocsPerOp)
	}
	if got := int(after.bytes-before.bytes) / ops; got < yardBytesPerOp || got > yardBytesPerOp+64 {
		t.Errorf("an op allocates %d bytes, yardBytesPerOp says %d", got, yardBytesPerOp)
	}
}
